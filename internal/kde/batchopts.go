package kde

import "context"

// This file is the batch-evaluation surface: one options-taking form
// per operation (DensityBatchOpts, DensityQBatchOpts). The per-call
// knobs, context and workers, ride in one BatchOptions value; how an
// estimator evaluates (pruning, the accuracy mode) is fixed when it is
// built, through Options.Eval, and a per-call accuracy is an
// accuracy-switched view (WithAccuracy). The engines behind these
// forms live in batch.go.

// BatchOptions carries the per-call knobs of a batch density
// evaluation. The zero value is the common case: background context,
// one worker per core.
type BatchOptions struct {
	// Workers caps the fan-out (≤ 0 = GOMAXPROCS, 1 = serial).
	// Results are bit-for-bit identical for every worker count.
	Workers int
	// Ctx cancels the batch; nil means context.Background().
	Ctx context.Context
}

// ctx resolves the batch context, defaulting nil to Background.
func (o BatchOptions) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background() //lint:allow ctxflow nil Ctx defaults to Background, the documented convenience
	}
	return o.Ctx
}

// DensityBatchOpts evaluates est at every row of X over the dimension
// subset dims (nil means all dimensions) under opt. It is the one
// batch entry point for plain (certain) queries.
//
// Every estimator runs on its SoA column engine — in the default exact
// configuration, bit-identical to the per-query DensitySub path; with
// Options.Eval's Prune or a non-exact Accuracy, within the configured
// relative budget. Every result is written to its own slot, so output
// is bit-for-bit identical for every worker count.
//
// Malformed rows or dims surface as errors wrapping
// udmerr.ErrDimensionMismatch, not panics.
func DensityBatchOpts(est Estimator, X [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	return densityBatch(opt.ctx(), est, X, dims, opt.Workers)
}

// DensityQBatchOpts is the uncertain-query variant of DensityBatchOpts:
// row i is evaluated with per-dimension query errors Qerr[i] folded
// into every kernel. Qerr may be nil (all queries certain, reducing to
// DensityBatchOpts) and individual Qerr rows may be nil (that query is
// certain).
func DensityQBatchOpts(est Estimator, X, Qerr [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	return densityQBatch(opt.ctx(), est, X, Qerr, dims, opt.Workers)
}
