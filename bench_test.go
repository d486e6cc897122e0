// Root benchmarks: one group per paper figure plus the DESIGN.md
// ablations. Figure benchmarks time the operation each figure measures
// (training per example for Figs. 8/11, classification per example for
// Figs. 4–7/9/10); the full sweeps that regenerate the printed series
// live in cmd/udmbench.
package udm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"udm"
	"udm/internal/baseline"
	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

// benchCache holds one perturbed train/test split per profile. It is
// guarded by benchCacheMu so that parallel benchmarks (and the -race CI
// job) can share it safely.
var (
	benchCacheMu sync.Mutex
	benchCache   = map[string]struct{ train, test *dataset.Dataset }{}
)

func benchBundle(b *testing.B, profile string, rows int, f float64) (train, test *dataset.Dataset) {
	b.Helper()
	key := fmt.Sprintf("%s-%d-%g", profile, rows, f)
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if got, ok := benchCache[key]; ok {
		return got.train, got.test
	}
	spec, err := datagen.ByName(profile)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(99)
	clean, err := spec.Generate(rows, r.Split("gen-"+key))
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, f, r.Split("per-"+key))
	if err != nil {
		b.Fatal(err)
	}
	tr, te, err := noisy.StratifiedSplit(2.0/3.0, r.Split("spl-"+key))
	if err != nil {
		b.Fatal(err)
	}
	benchCache[key] = struct{ train, test *dataset.Dataset }{tr, te}
	return tr, te
}

func benchClassifier(b *testing.B, train *dataset.Dataset, q int, adjust bool) *core.Classifier {
	b.Helper()
	tr, err := core.NewTransform(train, core.TransformOptions{
		MicroClusters: q, ErrorAdjust: adjust, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewClassifier(tr, core.ClassifierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// classifyLoop drives Classify over the test rows for b.N iterations.
func classifyLoop(b *testing.B, c interface {
	Classify([]float64) (int, error)
}, test *dataset.Dataset) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := test.X[i%test.Len()]
		if _, err := c.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 4 & 5 (Adult accuracy experiments): per-example
// classification cost of the three comparators at f = 1.2, q = 140. ---

func BenchmarkFig04AdultErrAdjClassify(b *testing.B) {
	train, test := benchBundle(b, "adult", 900, 1.2)
	classifyLoop(b, benchClassifier(b, train, 140, true), test)
}

func BenchmarkFig04AdultNoAdjClassify(b *testing.B) {
	train, test := benchBundle(b, "adult", 900, 1.2)
	classifyLoop(b, benchClassifier(b, train, 140, false), test)
}

func BenchmarkFig04AdultNNClassify(b *testing.B) {
	train, test := benchBundle(b, "adult", 900, 1.2)
	nn, err := baseline.NewNearestNeighbor(train)
	if err != nil {
		b.Fatal(err)
	}
	classifyLoop(b, nn, test)
}

func BenchmarkFig05AdultClassifyByQ(b *testing.B) {
	train, test := benchBundle(b, "adult", 900, 1.2)
	for _, q := range []int{20, 80, 140} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			classifyLoop(b, benchClassifier(b, train, q, true), test)
		})
	}
}

// --- Figures 6 & 7 (Forest Cover): same costs on the 7-class profile. ---

func BenchmarkFig06ForestErrAdjClassify(b *testing.B) {
	train, test := benchBundle(b, "forest-cover", 900, 1.2)
	classifyLoop(b, benchClassifier(b, train, 140, true), test)
}

func BenchmarkFig07ForestClassifyByQ(b *testing.B) {
	train, test := benchBundle(b, "forest-cover", 900, 1.2)
	for _, q := range []int{20, 80, 140} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			classifyLoop(b, benchClassifier(b, train, q, true), test)
		})
	}
}

// --- Figure 8: training (transform construction) per example for each
// data set; linear in q, ordered by dimensionality. ---

func BenchmarkFig08Train(b *testing.B) {
	for _, profile := range []string{"adult", "breast-cancer", "forest-cover", "ionosphere"} {
		train, _ := benchBundle(b, profile, 900, 1.2)
		for _, q := range []int{20, 140} {
			b.Run(fmt.Sprintf("%s/q=%d", profile, q), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.NewTransform(train, core.TransformOptions{
						MicroClusters: q, ErrorAdjust: true, Seed: 7,
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(train.Len()), "ns/example")
			})
		}
	}
}

// --- Figure 9: testing per example for each data set at q = 140. ---

func BenchmarkFig09Test(b *testing.B) {
	for _, profile := range []string{"adult", "breast-cancer", "forest-cover", "ionosphere"} {
		train, test := benchBundle(b, profile, 900, 1.2)
		b.Run(profile, func(b *testing.B) {
			classifyLoop(b, benchClassifier(b, train, 140, true), test)
		})
	}
}

// --- Figure 10: testing per example vs dimensionality (Ionosphere
// projections, 80 vs 140 micro-clusters). ---

func BenchmarkFig10TestByDim(b *testing.B) {
	train, test := benchBundle(b, "ionosphere", 900, 1.2)
	for _, q := range []int{80, 140} {
		for _, d := range []int{5, 15, 34} {
			proj := make([]int, d)
			for j := range proj {
				proj[j] = j
			}
			ptrain, err := train.Project(proj)
			if err != nil {
				b.Fatal(err)
			}
			ptest, err := test.Project(proj)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("q=%d/d=%d", q, d), func(b *testing.B) {
				classifyLoop(b, benchClassifier(b, ptrain, q, true), ptest)
			})
		}
	}
}

// --- Figure 11: training per example vs data size (Forest Cover,
// 140 micro-clusters). ---

func BenchmarkFig11TrainBySize(b *testing.B) {
	train, _ := benchBundle(b, "forest-cover", 2000, 1.2)
	for _, n := range []int{200, 1000, 2000} {
		if n > train.Len() {
			n = train.Len()
		}
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		sample := train.Subset(idx)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := microcluster.NewSummarizer(140, sample.Dims())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := i % sample.Len()
				s.Add(sample.X[row], sample.ErrRow(row))
			}
		})
	}
}

// --- Ablations (DESIGN.md §5). ---

// BenchmarkAblationAssignDistance compares the per-point cost of the
// Eq. 5 error-adjusted distance against plain Euclidean distance.
func BenchmarkAblationAssignDistance(b *testing.B) {
	r := rng.New(3)
	const d = 10
	y := make([]float64, d)
	c := make([]float64, d)
	e := make([]float64, d)
	for j := 0; j < d; j++ {
		y[j], c[j], e[j] = r.Norm(0, 1), r.Norm(0, 1), 0.3
	}
	b.Run("err-adjusted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = microcluster.Dist2(y, c, e)
		}
	})
	b.Run("euclidean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = microcluster.Dist2(y, c, nil)
		}
	})
}

// BenchmarkAblationBandwidth compares density evaluation under the three
// bandwidth rules (cost is identical; the interesting output is the
// accuracy sweep in `udmbench -fig ablation-bandwidth`; this bench pins
// the per-evaluation cost so regressions in the bandwidth path surface).
func BenchmarkAblationBandwidth(b *testing.B) {
	train, _ := benchBundle(b, "adult", 900, 1.2)
	s := microcluster.Build(train, 140, rng.New(4))
	for _, rule := range []kernel.BandwidthRule{kernel.Silverman, kernel.SilvermanRobust, kernel.Scott} {
		est, err := kde.NewCluster(s, kde.Options{
			ErrorAdjust: true,
			Bandwidth:   kernel.Bandwidth{Rule: rule},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rule.String(), func(b *testing.B) {
			x := train.X[0]
			for i := 0; i < b.N; i++ {
				_ = est.Density(x)
			}
		})
	}
}

// BenchmarkAblationExactVsMC compares one full-dimensional density
// evaluation over micro-clusters (O(q)) against the exact point sum
// (O(N)) — the speedup that justifies the transform.
func BenchmarkAblationExactVsMC(b *testing.B) {
	train, _ := benchBundle(b, "adult", 900, 1.2)
	s := microcluster.Build(train, 140, rng.New(5))
	mc, err := kde.NewCluster(s, kde.Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	exact, err := kde.NewPoint(train, kde.Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	x := train.X[0]
	b.Run("micro-cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mc.Density(x)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = exact.Density(x)
		}
	})
}

// BenchmarkRuleExtraction measures distilling the global rule set from a
// trained transform.
func BenchmarkRuleExtraction(b *testing.B) {
	train, _ := benchBundle(b, "adult", 900, 1.2)
	tr, err := core.NewTransform(train, core.TransformOptions{
		MicroClusters: 60, ErrorAdjust: true, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewClassifier(tr, core.ClassifierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExtractRules(tr, core.RuleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyBatchSpeedup compares sequential with parallel batch
// classification.
func BenchmarkClassifyBatchSpeedup(b *testing.B) {
	train, test := benchBundle(b, "forest-cover", 900, 1.2)
	c := benchClassifier(b, train, 80, true)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.ClassifyBatch(test.X, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictBatchWorkers compares the serial decision loop with
// the parallel PredictBatch engine at increasing worker counts — the
// headline speedup of the parallel density-evaluation engine. On an
// n-core runner workers=n should approach n× the workers=1 rate.
func BenchmarkPredictBatchWorkers(b *testing.B) {
	train, test := benchBundle(b, "forest-cover", 900, 1.2)
	c := benchClassifier(b, train, 140, true)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range test.X {
				if _, err := c.Decide(x); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.PredictBatch(test.X, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDensityBatchWorkers compares serial point-KDE evaluation of
// a whole query set against DensityBatchOpts at increasing worker counts —
// the raw kernel-sum substrate the classifier sits on.
func BenchmarkDensityBatchWorkers(b *testing.B) {
	train, test := benchBundle(b, "adult", 900, 1.2)
	est, err := kde.NewPoint(train, kde.Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range test.X {
				_ = est.Density(x)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kde.DensityBatchOpts(est, test.X, nil, kde.BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransformWorkers compares serial transform construction with
// the parallel per-class assignment path.
func BenchmarkTransformWorkers(b *testing.B) {
	train, _ := benchBundle(b, "forest-cover", 900, 1.2)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewTransform(train, core.TransformOptions{
					MicroClusters: 140, ErrorAdjust: true, Seed: 7, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransformPersistence measures model save+load round trips.
func BenchmarkTransformPersistence(b *testing.B) {
	train, _ := benchBundle(b, "adult", 900, 1.2)
	tr, err := core.NewTransform(train, core.TransformOptions{
		MicroClusters: 140, ErrorAdjust: true, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadTransform(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicTrain measures the one-call pipeline end to end.
func BenchmarkPublicTrain(b *testing.B) {
	train, _ := benchBundle(b, "adult", 900, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := udm.Train(train, udm.TrainConfig{MicroClusters: 60, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
