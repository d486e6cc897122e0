package density

import (
	"testing"

	"udm/internal/datagen"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

// BenchmarkBackendDensityBatch compares the full ladder on one data set
// and one query batch, per backend: the exact SoA engine, the micro
// pseudo-point compression and the grid moment aggregation.
// scripts/bench_kde.sh scrapes these series into the BENCH_kde.json
// trajectory.
func BenchmarkBackendDensityBatch(b *testing.B) {
	ds0, err := datagen.TwoBlobs(4).Generate(20000, rng.New(21))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := uncertain.Perturb(ds0, 0.15, rng.New(22))
	if err != nil {
		b.Fatal(err)
	}
	Q := ds.X[:256]
	for _, bk := range []evalopt.Backend{evalopt.BackendExact, evalopt.BackendMicro, evalopt.BackendGrid} {
		est, _, err := New(ds, kde.Options{
			ErrorAdjust: true,
			Eval:        evalopt.Options{Backend: bk},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("backend="+string(bk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kde.DensityBatchOpts(est, Q, nil, kde.BatchOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
