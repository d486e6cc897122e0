package udm_test

import (
	"context"
	"path/filepath"
	"testing"

	"udm"
)

// TestFullClassificationPipeline drives the complete supervised flow:
// profile → perturb → split → CSV round trip → train → persist → reload
// → evaluate → probabilities → rules. Everything a deployment would do.
func TestFullClassificationPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	spec, err := udm.DataProfile("breast-cancer")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := spec.Generate(1200, udm.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	// Moderate noise: at high f this near-separable profile saturates
	// into the over-smoothing regime documented in EXPERIMENTS.md.
	noisy, err := udm.Perturb(clean, 0.5, udm.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := noisy.StratifiedSplit(0.7, udm.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}

	// CSV round trip of the training table (errors included).
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "train.csv")
	if err := train.SaveCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	trainBack, err := udm.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if trainBack.Len() != train.Len() || !trainBack.HasErrors() {
		t.Fatal("CSV round trip lost rows or errors")
	}

	// Train, persist, reload.
	tr, err := udm.NewTransform(trainBack, udm.TransformOptions{
		MicroClusters: 60, ErrorAdjust: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.udm")
	if err := tr.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := udm.LoadTransformFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := udm.NewClassifier(loaded, udm.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate; the profile is quite separable, so demand a solid score.
	res, err := udm.Evaluate(clf, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() < 0.85 {
		t.Fatalf("pipeline accuracy %.3f", res.Accuracy())
	}

	// Probabilities agree with hard labels on a sample.
	for i := 0; i < 25; i++ {
		p, err := clf.Probabilities(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		label, err := clf.Classify(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		if p[1] > p[0] {
			best = 1
		}
		if best != label {
			t.Fatalf("row %d: probability argmax %d vs label %d", i, best, label)
		}
	}

	// Batch classification matches sequential.
	batch, err := clf.ClassifyBatch(test.X[:50], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		seq, _ := clf.Classify(test.X[i])
		if batch[i] != seq {
			t.Fatal("batch/sequential mismatch")
		}
	}

	// Rule extraction on the loaded model yields usable rules.
	rules, err := clf.ExtractRules(loaded, udm.RuleOptions{MaxPerClass: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules from a separable model")
	}
	rs, err := udm.NewRuleSet(rules, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rsRes, err := udm.Evaluate(rs, test)
	if err != nil {
		t.Fatal(err)
	}
	if rsRes.Accuracy() < 0.7 {
		t.Fatalf("rule-set accuracy %.3f too far below the classifier", rsRes.Accuracy())
	}
}

// TestFullStreamPipeline drives the unsupervised stream flow: engine →
// snapshots → window → drift → density → clustering → anomaly scoring.
func TestFullStreamPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	eng, err := udm.NewStreamEngine(udm.StreamOptions{
		MicroClusters: 40, Dims: 2, SnapshotEvery: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := udm.NewRand(5)
	const per = 1500
	for i := 0; i < 2*per; i++ {
		center := 0.0
		if i >= per {
			center = 5.0 // regime change
		}
		eng.Add([]float64{r.Norm(center, 0.5), r.Norm(0, 0.5)}, []float64{0.1, 0.1}, int64(i))
	}

	// Drift between the halves fires on dim 0 only.
	w1, err := eng.Window(-1, per-1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := eng.Window(per-1, 2*per-1)
	if err != nil {
		t.Fatal(err)
	}
	scores, worst, err := udm.Drift(w1, w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if worst != 0 || scores[0] < 0.9 || scores[1] > 0.2 {
		t.Fatalf("drift = %v (worst %d)", scores, worst)
	}

	// The second window's features feed density + clustering.
	s2, err := udm.SummarizerFromFeatures(w2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := udm.DBSCANClusters(s2, udm.DBSCANOptions{
		Eps: 1.5, KDE: udm.DensityOptions{ErrorAdjust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("second window clusters = %d, want 1 (single regime)", res.NumClusters)
	}

	// Anomaly scoring against the live summary.
	live, err := eng.Summarizer()
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0, 0}, {5, 0}, {50, 50}}
	out, err := udm.DetectStreamOutliers(context.Background(), live, queries, nil, udm.OutlierOptions{
		Contamination: 0.3, // top-1 of the three queries
		KDE:           udm.DensityOptions{ErrorAdjust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Outlier[0] || out.Outlier[1] || !out.Outlier[2] {
		t.Fatalf("outlier flags %v", out.Outlier)
	}
	if !(out.Scores[2] > out.Scores[0] && out.Scores[2] > out.Scores[1]) {
		t.Fatalf("far query not the most anomalous: %v", out.Scores)
	}
}
