package kde

import (
	"math"

	"udm/internal/parallel"
)

// This file is the shard-side half of the distributed density protocol
// (internal/distrib): instead of a scalar density, a shard returns the
// per-cluster weighted kernel product TERMS of Eq. 9 for its local
// micro-clusters, computed under globally-agreed bandwidths. The
// front tier concatenates the term vectors in fixed shard-index order
// and performs the single left-to-right sum over them, divided by the
// global point count — exactly the reduction DensitySub runs over the
// merged cluster set, so the fan-out answer is bit-identical to the
// single-node one. The heavy exponential work stays on the shards; the
// merge is one cheap ordered sum.

// PartialTermsBatch returns, for every row x of X, the per-cluster
// terms n(C_i)·Π_{j∈dims} Q'(x_j) of the estimate over dims (nil = all
// dimensions), one slot per micro-cluster in cluster order. The terms
// are the SoA engine's per-entry products before its sum, with exact
// exponentials: summing row i's terms left to right and dividing by
// Count() yields DensitySub(X[i], dims) bit for bit. Rows fan out across
// up to parallel.Workers(opt.Workers) goroutines and row i's terms land
// in slot i, so output is bit-for-bit identical for every worker count.
// Malformed rows or dims surface as errors wrapping
// udmerr.ErrDimensionMismatch, matching the batch density paths.
func (k *ClusterKDE) PartialTermsBatch(X [][]float64, dims []int, opt BatchOptions) ([][]float64, error) {
	dims, err := batchDims(k, X, dims)
	if err != nil {
		return nil, err
	}
	e, nc := k.eng, len(k.cents)
	// One flat backing array for every row's terms, sliced per row —
	// the batch allocates twice no matter how many rows or clusters.
	flat := make([]float64, len(X)*nc)
	out := make([][]float64, len(X))
	err = parallel.For(opt.ctx(), len(X), opt.Workers, func(start, end int) error {
		for i := start; i < end; i++ {
			row := flat[i*nc : (i+1)*nc : (i+1)*nc]
			e.terms(&e.flat, 0, X[i], nil, dims, math.Exp, row)
			out[i] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
