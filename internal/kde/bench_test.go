package kde

import (
	"fmt"
	"testing"

	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

func BenchmarkPointDensity(b *testing.B) {
	for _, n := range []int{100, 1000} {
		d := gauss2(n, 0.5, 1)
		est, err := NewPoint(d, Options{ErrorAdjust: true})
		if err != nil {
			b.Fatal(err)
		}
		q := []float64{0.5, -0.2}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = est.Density(q)
			}
		})
	}
}

func BenchmarkClusterDensity(b *testing.B) {
	d := gauss2(2000, 0.5, 2)
	for _, q := range []int{20, 140} {
		s := microcluster.Build(d, q, rng.New(3))
		est, err := NewCluster(s, Options{ErrorAdjust: true})
		if err != nil {
			b.Fatal(err)
		}
		x := []float64{0.5, -0.2}
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = est.Density(x)
			}
		})
	}
}

func BenchmarkClusterDensitySub1D(b *testing.B) {
	d := gauss2(2000, 0.5, 4)
	s := microcluster.Build(d, 140, rng.New(5))
	est, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.5, -0.2}
	dims := []int{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.DensitySub(x, dims)
	}
}

// BenchmarkDensityBatch pins the batch engine against the serial loop
// at several worker counts; the serial/workers=1 pair exposes the
// fan-out overhead, larger counts the multicore speedup.
func BenchmarkDensityBatch(b *testing.B) {
	d := gauss2(1000, 0.5, 8)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range d.X {
				_ = est.Density(x)
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DensityBatchOpts(est, d.X, nil, BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartialTermsBatch is the shard side of a udmproxy density
// fan-out: per-cluster terms for 64 queries over a forest-cover summary
// (q = 140, d = 10), evaluated serially under explicit bandwidths, as
// /partial evaluates under the coordinator's.
func BenchmarkPartialTermsBatch(b *testing.B) {
	r := rng.New(21)
	clean, err := datagen.ForestCover().Generate(2064, r.Split("gen"))
	if err != nil {
		b.Fatal(err)
	}
	d, err := uncertain.Perturb(clean, 1.0, r.Split("per"))
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, 2000)
	for i := range idx {
		idx[i] = i
	}
	s := microcluster.Build(d.Subset(idx), 140, r.Split("build"))
	opt := Options{ErrorAdjust: true}
	if opt.Bandwidths, err = SummaryBandwidths(s, opt); err != nil {
		b.Fatal(err)
	}
	est, err := NewCluster(s, opt)
	if err != nil {
		b.Fatal(err)
	}
	X := d.X[2000:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.PartialTermsBatch(X, nil, BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// blobGrid builds n points spread over a g×g grid of well-separated
// Gaussian blobs (spacing 20, blob σ 0.5, per-entry error e) — the
// clustered regime where far-field pruning should shine, since every
// query sees all but its own blob's kernels as negligible.
func blobGrid(n, g int, e float64, seed int64) *dataset.Dataset {
	r := rng.New(seed)
	d := dataset.New("x", "y")
	for i := 0; i < n; i++ {
		cell := i % (g * g)
		cx, cy := float64(cell%g)*20, float64(cell/g)*20
		row := []float64{r.Norm(cx, 0.5), r.Norm(cy, 0.5)}
		var er []float64
		if e > 0 {
			er = []float64{e, e}
		}
		_ = d.Append(row, er, dataset.Unlabeled)
	}
	return d
}

// BenchmarkDensityBatchPruned measures the far-field pruning win on
// clustered data: the same all-pairs batch as BenchmarkDensityBatch,
// over a 4×4 blob grid, in exact mode (Prune=0), pruned exact mode
// (Prune=1e-6, result within 1e-6 relative of exact), and pruned
// approximate mode (Approx(1e-6) fast exponential on top). The
// bandwidths are pinned to a CV-scale value so the run is deterministic
// and the bench gate's exact/pruned ratio is machine-independent.
func BenchmarkDensityBatchPruned(b *testing.B) {
	d := blobGrid(2000, 4, 0.2, 11)
	modes := []struct {
		name string
		opt  Options
	}{
		{"mode=exact", Options{ErrorAdjust: true, Bandwidths: []float64{0.35, 0.35}}},
		{"mode=pruned", Options{ErrorAdjust: true, Bandwidths: []float64{0.35, 0.35}, Eval: evalopt.Options{Prune: 1e-6}}},
		{"mode=approx", Options{ErrorAdjust: true, Bandwidths: []float64{0.35, 0.35}, Eval: evalopt.Options{Prune: 1e-6, Accuracy: kernel.Approx(1e-6)}}},
	}
	for _, m := range modes {
		est, err := NewPoint(d, m.opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DensityBatchOpts(est, d.X, nil, BatchOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCVBandwidthsWorkers times the parallel LOO bandwidth search.
func BenchmarkCVBandwidthsWorkers(b *testing.B) {
	d := gauss2(400, 0.5, 9)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CVBandwidthsWorkers(d, true, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSample(b *testing.B) {
	d := gauss2(500, 0.5, 6)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Sample(100, r); err != nil {
			b.Fatal(err)
		}
	}
}
