package kde

import (
	"context"
	"fmt"

	"udm/internal/obs"
	"udm/internal/parallel"
	"udm/internal/udmerr"
)

// This file holds the batch-evaluation engines. Only the
// BatchOptions-taking forms in batchopts.go call them, after resolving
// the context (never nil).

// densityBatch is the engine behind DensityBatchOpts: it fans the rows
// of X out over up to parallel.Workers(workers) goroutines through
// est's SoA column engine. Every result is written to its own slot, so
// the output is bit-for-bit identical for every worker count.
// Estimators are read-only after construction and therefore safe to
// share across the workers. Cancelling ctx aborts the batch before its
// next row, in any chunk, and returns ctx.Err().
func densityBatch(ctx context.Context, est Estimator, X [][]float64, dims []int, workers int) ([]float64, error) {
	ctx, sp := obs.StartSpan(ctx, "kde.DensityBatch")
	defer sp.End()
	densityBatches.Inc()
	kernelEvals.Add(int64(len(X)) * int64(est.Count()))
	dims, err := batchDims(est, X, dims)
	if err != nil {
		return nil, err
	}
	sp.Attr("points", len(X)).Attr("dims", len(dims))
	e := est.soa()
	return parallel.MapChunks(ctx, len(X), workers, func(start, end int, out []float64) error {
		sc := e.scratch()
		defer e.release(sc)
		for i := start; i < end; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			out[i-start] = e.density(X[i], nil, dims, sc)
		}
		return nil
	})
}

// densityQBatch is the engine behind DensityQBatchOpts: row i is
// evaluated with per-dimension query errors Qerr[i] folded into every
// kernel. Qerr may be nil (all queries certain, reducing to
// densityBatch) and individual Qerr rows may be nil (that query is
// certain). Results are bit-for-bit identical for every worker count.
func densityQBatch(ctx context.Context, est Estimator, X, Qerr [][]float64, dims []int, workers int) ([]float64, error) {
	ctx, sp := obs.StartSpan(ctx, "kde.DensityQBatch")
	defer sp.End()
	densityQBatches.Inc()
	kernelEvals.Add(int64(len(X)) * int64(est.Count()))
	dims, err := batchDims(est, X, dims)
	if err != nil {
		return nil, err
	}
	sp.Attr("points", len(X)).Attr("dims", len(dims))
	if Qerr != nil && len(Qerr) != len(X) {
		return nil, fmt.Errorf("kde: %d query-error rows for %d queries: %w", len(Qerr), len(X), udmerr.ErrDimensionMismatch)
	}
	for i, er := range Qerr {
		if er != nil && len(er) != est.Dims() {
			return nil, fmt.Errorf("kde: query-error row %d has %d dims, estimator has %d: %w", i, len(er), est.Dims(), udmerr.ErrDimensionMismatch)
		}
	}
	e := est.soa()
	return parallel.MapChunks(ctx, len(X), workers, func(start, end int, out []float64) error {
		sc := e.scratch()
		defer e.release(sc)
		for i := start; i < end; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			var qe []float64
			if Qerr != nil {
				qe = Qerr[i]
			}
			out[i-start] = e.density(X[i], qe, dims, sc)
		}
		return nil
	})
}

// batchDims is the one input check of the batch entry points: it
// validates the query rows and the dimension subset, resolving a nil
// dims to all dimensions.
func batchDims(est Estimator, X [][]float64, dims []int) ([]int, error) {
	d := est.Dims()
	for i, x := range X {
		if len(x) != d {
			return nil, fmt.Errorf("kde: query row %d has %d dims, estimator has %d: %w", i, len(x), d, udmerr.ErrDimensionMismatch)
		}
	}
	if dims == nil {
		return allDims(d), nil
	}
	for _, j := range dims {
		if j < 0 || j >= d {
			return nil, fmt.Errorf("kde: subspace dimension %d out of range [0,%d): %w", j, d, udmerr.ErrDimensionMismatch)
		}
	}
	return dims, nil
}
