package kde

import (
	"fmt"

	"udm/internal/kernel"
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

// PartialTerms writes the per-cluster term n(C_i)·Π_{j∈dims} Q'(x_j)
// for every micro-cluster of the estimate into dst (allocated when
// nil; otherwise len(dst) must be Clusters()). The terms reproduce
// DensitySub's inner loop bit-for-bit: summing them left to right in
// cluster order and dividing by Count() yields DensitySub(x, dims)
// exactly. A nil dims means all dimensions. Like the other per-query
// methods, dimension misuse panics.
func (k *ClusterKDE) PartialTerms(x []float64, dims []int, dst []float64) []float64 {
	if len(x) != len(k.h) {
		panic(fmt.Sprintf("kde: query point has %d dims, estimator has %d", len(x), len(k.h)))
	}
	if dims == nil {
		dims = allDims(len(k.h))
	}
	checkDims(dims, len(k.h))
	if dst == nil {
		dst = make([]float64, len(k.cents))
	} else if len(dst) != len(k.cents) {
		panic(fmt.Sprintf("kde: term buffer has %d slots, estimator has %d clusters", len(dst), len(k.cents)))
	}
	for i, c := range k.cents {
		prod := k.weights[i]
		for _, j := range dims {
			if k.opt.PaperKernel {
				prod *= kernel.ErrAdjustedPaper(x[j], c[j], k.h[j], k.deltas[i][j])
			} else {
				prod *= kernel.ErrAdjustedNormalized(x[j], c[j], k.h[j], k.deltas[i][j])
			}
			if prod == 0 {
				break
			}
		}
		dst[i] = prod
	}
	return dst
}

// PartialTermsBatch returns PartialTerms for every row of X over dims
// (nil = all dimensions), fanned out across up to
// parallel.Workers(opt.Workers) goroutines. Row i's terms land in slot
// i of the result, so output is bit-for-bit identical for every worker
// count. Malformed rows or dims surface as errors wrapping
// udmerr.ErrDimensionMismatch, matching the batch density paths.
func (k *ClusterKDE) PartialTermsBatch(X [][]float64, dims []int, opt BatchOptions) ([][]float64, error) {
	dims, err := batchDims(k, X, dims)
	if err != nil {
		return nil, err
	}
	nc := len(k.cents)
	// One flat backing array for every row's terms, sliced per row —
	// the batch allocates twice no matter how many rows or clusters.
	flat := make([]float64, len(X)*nc)
	out := make([][]float64, len(X))
	err = parallel.For(opt.ctx(), len(X), opt.Workers, func(start, end int) error {
		for i := start; i < end; i++ {
			row := flat[i*nc : (i+1)*nc : (i+1)*nc]
			k.PartialTerms(X[i], dims, row)
			out[i] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
