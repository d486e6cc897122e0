package kde

import (
	"context"
	"fmt"

	"udm/internal/evalopt"
	"udm/internal/kernel"
	"udm/internal/udmerr"
)

// This file is the batch-evaluation surface: one options-taking form
// per operation (DensityBatchOpts, DensityQBatchOpts,
// LeaveOneOutBatchOpts). Every per-call knob — context, workers,
// accuracy — rides in one BatchOptions value, so a new knob is a new
// field rather than a new positional parameter or another variant.
// The engines behind these forms live in batch.go.

// BatchOptions carries every per-call knob of a batch density
// evaluation. The zero value is the common case: background context,
// one worker per core, the estimator's own evaluation configuration.
type BatchOptions struct {
	// Workers caps the fan-out (≤ 0 = GOMAXPROCS, 1 = serial).
	// Results are bit-for-bit identical for every worker count.
	// Eval.Workers, when non-zero, takes precedence so a parsed
	// evalopt string can carry the whole configuration.
	Workers int
	// Ctx cancels the batch; nil means context.Background().
	Ctx context.Context
	// Eval is the unified evaluation configuration. At batch time two
	// fields apply: Workers (see above) and Accuracy, which evaluates
	// this package's estimator types under a cheap accuracy-switched
	// view (WithAccuracy) for the duration of the call. The remaining
	// fields — Backend, Epsilon, Prune, and the sizing knobs — take
	// effect where estimators are constructed (Options.Eval,
	// internal/density).
	Eval evalopt.Options
}

// ctx resolves the batch context, defaulting nil to Background.
func (o BatchOptions) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background() //lint:allow ctxflow nil Ctx defaults to Background, the documented convenience
	}
	return o.Ctx
}

// workers resolves the fan-out cap; Eval.Workers wins when set.
func (o BatchOptions) workers() int {
	if o.Eval.Workers != 0 {
		return o.Eval.Workers
	}
	return o.Workers
}

// DensityBatchOpts evaluates est at every row of X over the dimension
// subset dims (nil means all dimensions) under opt. It is the one
// batch entry point for plain (certain) queries.
//
// Gaussian-kernel estimators from this package run on the SoA column
// engine — in the default exact configuration, bit-identical to the
// per-query DensitySub path; with Options.Prune or a non-exact
// accuracy (from Options or opt.Eval.Accuracy), within the configured
// relative budget. Every rung internal/density builds is one of these
// types. Other estimators take the scalar fallback. Every result is
// written to its own slot, so output is bit-for-bit identical for
// every worker count.
//
// Malformed rows or dims surface as errors wrapping
// udmerr.ErrDimensionMismatch, not panics.
func DensityBatchOpts(est Estimator, X [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	est, err := applyEval(est, opt.Eval)
	if err != nil {
		return nil, err
	}
	return densityBatch(opt.ctx(), est, X, dims, opt.workers())
}

// DensityQBatchOpts is the uncertain-query variant of DensityBatchOpts:
// row i is evaluated with per-dimension query errors Qerr[i] folded
// into every kernel. Qerr may be nil (all queries certain, reducing to
// DensityBatchOpts) and individual Qerr rows may be nil (that query is
// certain).
func DensityQBatchOpts(est QEstimator, X, Qerr [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	if p, ok := est.(*PointKDE); ok && Qerr != nil && p.opt.Kernel != kernel.Gaussian {
		return nil, fmt.Errorf("kde: DensityQBatchOpts requires the Gaussian kernel, got %v: %w", p.opt.Kernel, udmerr.ErrBadOption)
	}
	est2, err := applyEval(est, opt.Eval)
	if err != nil {
		return nil, err
	}
	// applyEval preserves the concrete type, so the QEstimator methods
	// survive the accuracy switch.
	return densityQBatch(opt.ctx(), est2.(QEstimator), X, Qerr, dims, opt.workers())
}

// LeaveOneOutBatchOpts returns LeaveOneOutDensity for every training
// index under opt — the hot inner loop of outlier detection and
// likelihood cross-validation. The leave-one-out correction is defined
// point-wise, so evaluation is always exact (opt.Eval.Accuracy does
// not apply); opt supplies context and worker count.
func (k *PointKDE) LeaveOneOutBatchOpts(dims []int, opt BatchOptions) ([]float64, error) {
	return k.leaveOneOutBatch(opt.ctx(), dims, opt.workers())
}

// applyEval returns est under opt's accuracy mode: a cheap
// accuracy-switched view for this package's estimator types, est
// unchanged when the mode is exact. Estimators from other packages
// carry their accuracy from construction.
func applyEval(est Estimator, opt evalopt.Options) (Estimator, error) {
	if opt.Accuracy.IsExact() {
		return est, nil
	}
	switch k := est.(type) {
	case *PointKDE:
		return k.WithAccuracy(opt.Accuracy)
	case *ClusterKDE:
		return k.WithAccuracy(opt.Accuracy)
	}
	return est, nil
}
