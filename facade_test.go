package udm_test

import (
	"math"
	"testing"

	"udm"
)

// These tests exercise the facade exports that the quickstart-style tests
// don't reach: microaggregation, CV bandwidths, drift, k-means, naive
// Bayes, outlier explanation, and mixed/row-level perturbation.

func TestFacadeMicroaggregate(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(200, udm.NewRand(30))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := udm.Microaggregate(clean, udm.MicroaggregateOptions{GroupSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.HasErrors() || agg.Len() != 200 {
		t.Fatal("aggregation lost rows or errors")
	}
	// Aggregated data still trains a usable classifier.
	clf, err := udm.Train(agg, udm.TrainConfig{MicroClusters: 20, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	got, err := clf.Classify([]float64{-3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("aggregated classifier predicted %d", got)
	}
}

func TestFacadeCVBandwidths(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(150, udm.NewRand(32))
	if err != nil {
		t.Fatal(err)
	}
	h, err := udm.CVBandwidths(clean, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0] <= 0 || h[1] <= 0 {
		t.Fatalf("bandwidths %v", h)
	}
	est, err := udm.NewPointDensity(clean, udm.DensityOptions{Bandwidths: h})
	if err != nil {
		t.Fatal(err)
	}
	if est.Density([]float64{-3, 0}) <= 0 {
		t.Fatal("density with CV bandwidths non-positive")
	}
}

func TestFacadeDriftAndStream(t *testing.T) {
	eng, err := udm.NewStreamEngine(udm.StreamOptions{MicroClusters: 16, Dims: 1, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := udm.NewRand(33)
	for i := 0; i < 800; i++ {
		c := 0.0
		if i >= 400 {
			c = 5.0
		}
		eng.Add([]float64{r.Norm(c, 0.5)}, nil, int64(i))
	}
	w1, err := eng.Window(-1, 399)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := eng.Window(399, 799)
	if err != nil {
		t.Fatal(err)
	}
	score, err := udm.Drift1D(w1, w2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.9 {
		t.Fatalf("drift %v, want near 1", score)
	}
}

func TestFacadeKMeansAndNaiveBayes(t *testing.T) {
	clean, err := udm.TwoBlobs(4).Generate(300, udm.NewRand(34))
	if err != nil {
		t.Fatal(err)
	}
	km, err := udm.KMeans(clean, udm.KMeansOptions{K: 2, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids) != 2 {
		t.Fatal("kmeans centroids wrong")
	}
	nb, err := udm.NewNaiveBayes(clean)
	if err != nil {
		t.Fatal(err)
	}
	res, err := udm.Evaluate(nb, clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() < 0.95 {
		t.Fatalf("NB accuracy %.3f on separable blobs", res.Accuracy())
	}
}

func TestFacadeExplainOutlier(t *testing.T) {
	ds := udm.NewDataset("a", "b")
	r := udm.NewRand(36)
	for i := 0; i < 150; i++ {
		_ = ds.Append([]float64{r.Norm(0, 1), r.Norm(0, 1)}, nil, udm.Unlabeled)
	}
	_ = ds.Append([]float64{0, 30}, nil, udm.Unlabeled)
	contribs, err := udm.ExplainOutlier(ds, 150, udm.OutlierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if contribs[0].Dim != 1 {
		t.Fatalf("guilty dimension %d, want 1", contribs[0].Dim)
	}
}

func TestFacadePerturbVariants(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(300, udm.NewRand(37))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := udm.MixedLevelPerturb(clean, 0.1, 2, 0.5, udm.NewRand(38))
	if err != nil {
		t.Fatal(err)
	}
	row, err := udm.RowLevelPerturb(clean, []float64{0.1, 2}, []float64{1, 1}, udm.NewRand(39))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*udm.Dataset{mixed, row} {
		if !ds.HasErrors() {
			t.Fatal("perturbation lost errors")
		}
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Row-level: uniform error within a row; mixed: not necessarily.
	uniform := true
	for j := 1; j < row.Dims(); j++ {
		// errors scale with per-dim σ, so compare multipliers.
		_, sig := clean.ColumnStats()
		if math.Abs(row.Err[0][j]/sig[j]-row.Err[0][0]/sig[0]) > 1e-9 {
			uniform = false
		}
	}
	if !uniform {
		t.Fatal("RowLevelPerturb errors not uniform within a row")
	}
}

func TestFacadeRulesEndToEnd(t *testing.T) {
	clean, err := udm.TwoBlobs(4).Generate(500, udm.NewRand(40))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := udm.NewTransform(clean, udm.TransformOptions{MicroClusters: 15, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := udm.NewClassifier(tr, udm.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := clf.ExtractRules(tr, udm.RuleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := udm.NewRuleSet(rules, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := udm.Evaluate(rs, clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() < 0.9 {
		t.Fatalf("rule set accuracy %.3f", res.Accuracy())
	}
}

func TestFacadeParallelBatch(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(300, udm.NewRand(40))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := udm.Perturb(clean, 1.0, udm.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	if udm.BatchWorkers(7) != 7 || udm.BatchWorkers(0) < 1 {
		t.Fatal("BatchWorkers resolution broken")
	}

	// Batch density through the facade: bit-identical to serial.
	est, err := udm.NewPointDensity(noisy, udm.DensityOptions{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := udm.DensityBatchOpts(est, noisy.X, nil, udm.BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range noisy.X {
		if batch[i] != est.Density(x) {
			t.Fatalf("row %d: batch %v != serial %v", i, batch[i], est.Density(x))
		}
	}

	// Train with explicit workers: same model as the serial build.
	workers := udm.TrainConfig{MicroClusters: 20, Seed: 42, Workers: 8}
	serial := workers
	serial.Workers = 1
	cw, err := udm.Train(noisy, workers)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := udm.Train(noisy, serial)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := cw.PredictBatch(noisy.X, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range noisy.X {
		want, err := cs.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if dp[i].Label != want {
			t.Fatalf("row %d: parallel-trained PredictBatch label %d, serial train+classify %d", i, dp[i].Label, want)
		}
	}

	// Parallel CV bandwidths agree with the default path.
	h1, err := udm.CVBandwidths(noisy, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	h8, err := udm.CVBandwidthsWorkers(noisy, true, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := range h1 {
		if h1[j] != h8[j] {
			t.Fatalf("CV bandwidth %d: %v vs %v", j, h1[j], h8[j])
		}
	}
}

// TestFacadeDensityQBatchOpts pins the public uncertain-query batch: on
// both estimator types it is bit-identical to the per-query DensityQ
// loop at 1 and 4 workers, and a nil Qerr reproduces DensityBatchOpts.
func TestFacadeDensityQBatchOpts(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(240, udm.NewRand(46))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := udm.Perturb(clean, 1.0, udm.NewRand(47))
	if err != nil {
		t.Fatal(err)
	}
	point, err := udm.NewPointDensity(noisy, udm.DensityOptions{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := udm.NewClusterDensity(udm.Summarize(noisy, 30, udm.NewRand(48)), udm.DensityOptions{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(noisy.X[0]))
	for j := range all {
		all[j] = j
	}
	qerr := make([][]float64, len(noisy.X))
	for i := range qerr {
		if i%3 == 0 {
			continue // every third query stays certain (nil row)
		}
		qerr[i] = make([]float64, len(all))
		for j := range qerr[i] {
			qerr[i][j] = 0.1 * float64(j+1+i%2)
		}
	}
	type qEstimator interface {
		udm.DensityEstimator
		DensityQ(x, qerr []float64, dims []int) float64
	}
	for name, est := range map[string]qEstimator{"point": point, "cluster": cluster} {
		for _, workers := range []int{1, 4} {
			got, err := udm.DensityQBatchOpts(est, noisy.X, qerr, nil, udm.BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range noisy.X {
				if want := est.DensityQ(x, qerr[i], all); got[i] != want {
					t.Fatalf("%s workers=%d: row %d = %v, want %v (not bit-identical)", name, workers, i, got[i], want)
				}
			}
		}
		plain, err := udm.DensityQBatchOpts(est, noisy.X, nil, nil, udm.BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := udm.DensityBatchOpts(est, noisy.X, nil, udm.BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != batch[i] {
				t.Fatalf("%s: nil-Qerr row %d = %v, DensityBatchOpts %v", name, i, plain[i], batch[i])
			}
		}
	}
}
