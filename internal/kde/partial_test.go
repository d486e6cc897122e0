package kde

import (
	"errors"
	"math"
	"testing"

	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// partialSummarizer builds a deterministic 3-D summary for the partial
// term tests.
func partialSummarizer(seed int64, n, q int) *microcluster.Summarizer {
	r := rng.New(seed)
	s := microcluster.NewSummarizer(q, 3)
	for i := 0; i < n; i++ {
		x := []float64{r.Norm(0, 1), r.Norm(5, 2), r.Norm(-2, 0.5)}
		e := []float64{math.Abs(r.Norm(0, 0.1)), math.Abs(r.Norm(0, 0.3)), 0}
		s.AddAt(x, e, int64(i+1))
	}
	return s
}

func partialQueries(seed int64, n int) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{r.Norm(0, 2), r.Norm(5, 3), r.Norm(-2, 1)}
	}
	return out
}

// TestPartialTermsReproduceDensity is the bit-contract behind the
// distributed fan-out: summing the per-cluster terms left to right in
// cluster order and dividing by Count() must reproduce DensitySub — and
// therefore the batch engine, which is regression-tested against it —
// to the bit.
func TestPartialTermsReproduceDensity(t *testing.T) {
	s := partialSummarizer(3, 500, 8)
	for _, opt := range []Options{
		{ErrorAdjust: true},
		{ErrorAdjust: false},
		{ErrorAdjust: true, PaperKernel: true},
	} {
		est, err := NewCluster(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, dims := range [][]int{nil, {0}, {1, 2}, {2, 0}} {
			for qi, x := range partialQueries(17, 25) {
				rows, err := est.PartialTermsBatch([][]float64{x}, dims, BatchOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				terms := rows[0]
				if len(terms) != est.Clusters() {
					t.Fatalf("%d terms for %d clusters", len(terms), est.Clusters())
				}
				var sum float64
				for _, v := range terms {
					sum += v
				}
				got := sum / float64(est.Count())
				var want float64
				if dims == nil {
					want = est.Density(x)
				} else {
					want = est.DensitySub(x, dims)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("opt=%+v dims=%v query %d: ordered term sum %v != DensitySub %v", opt, dims, qi, got, want)
				}
			}
		}
	}
}

// scalarTerms is the per-query loop the batch form replaced, kept here
// as the reference: each cluster's weight times its kernel factors in
// dims order, stopping once the product is zero.
func scalarTerms(k *ClusterKDE, x []float64) []float64 {
	out := make([]float64, len(k.cents))
	for i, c := range k.cents {
		prod := k.weights[i]
		for j := range k.h {
			if k.opt.PaperKernel {
				prod *= kernel.ErrAdjustedPaper(x[j], c[j], k.h[j], k.deltas[i][j])
			} else {
				prod *= kernel.ErrAdjustedNormalized(x[j], c[j], k.h[j], k.deltas[i][j])
			}
			if prod == 0 {
				break
			}
		}
		out[i] = prod
	}
	return out
}

// TestPartialTermsBatch checks the batch form: positional agreement
// with the scalar per-query loop, bit-identical for every worker count,
// and batch-path validation errors instead of panics.
func TestPartialTermsBatch(t *testing.T) {
	s := partialSummarizer(5, 400, 6)
	est, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	X := partialQueries(23, 40)
	base, err := est.PartialTermsBatch(X, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		one := scalarTerms(est, x)
		for c := range one {
			if math.Float64bits(base[i][c]) != math.Float64bits(one[c]) {
				t.Fatalf("row %d cluster %d: batch %v != per-query %v", i, c, base[i][c], one[c])
			}
		}
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := est.PartialTermsBatch(X, nil, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for c := range got[i] {
				if math.Float64bits(got[i][c]) != math.Float64bits(base[i][c]) {
					t.Fatalf("workers=%d row %d cluster %d differs", workers, i, c)
				}
			}
		}
	}
	if _, err := est.PartialTermsBatch([][]float64{{1, 2}}, nil, BatchOptions{}); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Fatalf("short row: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := est.PartialTermsBatch(X[:1], []int{3}, BatchOptions{}); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Fatalf("bad subspace dim: got %v, want ErrDimensionMismatch", err)
	}
}

// TestPartialTermsSharded runs the whole distributed reduction at the
// library level: partial summaries on k shards evaluate terms under the
// merged summary's bandwidths, the front tier concatenates the term
// vectors in shard-index order and performs the one ordered sum — which
// must equal the single-node batch answer over the merged summary to
// the bit, for every shard count.
func TestPartialTermsSharded(t *testing.T) {
	r := rng.New(9)
	n := 600
	xs := make([][]float64, n)
	errs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{r.Norm(0, 1), r.Norm(4, 2), r.Norm(-1, 0.7)}
		errs[i] = []float64{math.Abs(r.Norm(0, 0.2)), 0, math.Abs(r.Norm(0, 0.1))}
	}
	X := partialQueries(31, 30)
	for _, k := range []int{1, 2, 4, 8} {
		parts := make([]*microcluster.Summarizer, k)
		for i := range parts {
			parts[i] = microcluster.NewSummarizer(4, 3)
		}
		for i := range xs {
			parts[i%k].AddAt(xs[i], errs[i], int64(i+1))
		}
		merged, err := microcluster.MergeSummarizers(parts...)
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewCluster(merged, Options{ErrorAdjust: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := DensityBatchOpts(single, X, nil, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Global bandwidths from the merged summary, shipped to shards.
		h := make([]float64, 3)
		for j := range h {
			h[j] = single.BandwidthFor(j)
		}
		total := float64(single.Count())
		perShard := make([][][]float64, k)
		for si, p := range parts {
			shardEst, err := NewCluster(p, Options{ErrorAdjust: true, Bandwidths: h})
			if err != nil {
				t.Fatal(err)
			}
			perShard[si], err = shardEst.PartialTermsBatch(X, nil, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
		}
		for qi := range X {
			var sum float64
			for si := 0; si < k; si++ {
				for _, v := range perShard[si][qi] {
					sum += v
				}
			}
			got := sum / total
			if math.Float64bits(got) != math.Float64bits(want[qi]) {
				t.Fatalf("k=%d query %d: fan-out %v != single-node %v", k, qi, got, want[qi])
			}
		}
	}
}
