package udm_test

import (
	"context"
	"errors"
	"testing"

	"udm"
)

// TestSentinelErrorContract checks the documented error taxonomy: every
// validation failure across the facade is classifiable with errors.Is
// against the four exported sentinels — no string matching needed.
func TestSentinelErrorContract(t *testing.T) {
	ds := udm.NewDataset("a", "b")
	if err := ds.Append([]float64{1}, nil, 0); !errors.Is(err, udm.ErrDimensionMismatch) {
		t.Errorf("short row: %v, want ErrDimensionMismatch", err)
	}
	if err := ds.Append([]float64{1, 2}, []float64{0.1}, 0); !errors.Is(err, udm.ErrDimensionMismatch) {
		t.Errorf("short error row: %v, want ErrDimensionMismatch", err)
	}

	// An estimator over an empty dataset is untrained.
	if _, err := udm.NewPointDensity(ds, udm.DensityOptions{}); !errors.Is(err, udm.ErrUntrained) {
		t.Errorf("empty dataset: %v, want ErrUntrained", err)
	}

	if err := ds.Append([]float64{1, 2}, []float64{0.1, 0.1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ds.Append([]float64{2, 3}, []float64{0.1, 0.1}, 1); err != nil {
		t.Fatal(err)
	}

	// Mixing error-free and error-bearing rows is ErrNoErrors.
	if err := ds.Append([]float64{3, 4}, nil, 0); !errors.Is(err, udm.ErrNoErrors) {
		t.Errorf("mixed error rows: %v, want ErrNoErrors", err)
	}

	// Training on a single class is ErrUntrained.
	single := udm.NewDataset("a", "b")
	for i := 0; i < 20; i++ {
		if err := single.Append([]float64{float64(i), 1}, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := udm.Train(single, udm.TrainConfig{}); !errors.Is(err, udm.ErrUntrained) {
		t.Errorf("one-class training: %v, want ErrUntrained", err)
	}
}

// trainedClassifier builds a small classifier for the context tests.
func trainedClassifier(t *testing.T) (*udm.Classifier, *udm.Dataset) {
	t.Helper()
	clean, err := udm.TwoBlobs(3).Generate(400, udm.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := udm.Train(clean, udm.TrainConfig{MicroClusters: 30, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return clf, clean
}

// TestContextFirstAPIs checks the redesigned facade: every batch entry
// point accepts a context (directly or via BatchOptions.Ctx) and honors
// cancellation, and the old positional forms still work as wrappers.
func TestContextFirstAPIs(t *testing.T) {
	clf, ds := trainedClassifier(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := udm.TrainContext(canceled, ds, udm.TrainConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainContext(canceled): %v, want context.Canceled", err)
	}
	if _, err := clf.ClassifyBatchContext(canceled, ds.X, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyBatchContext(canceled): %v, want context.Canceled", err)
	}

	est, err := udm.NewPointDensity(ds, udm.DensityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := udm.DensityBatchOpts(est, ds.X, nil, udm.BatchOptions{Ctx: canceled}); !errors.Is(err, context.Canceled) {
		t.Errorf("DensityBatchOpts(canceled Ctx): %v, want context.Canceled", err)
	}
	if _, err := udm.CVBandwidthsContext(canceled, ds, false, nil, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("CVBandwidthsContext(canceled): %v, want context.Canceled", err)
	}

	// A nil Ctx means context.Background() and agrees with an explicit
	// Background context bit-for-bit.
	direct, err := udm.DensityBatchOpts(est, ds.X[:10], nil, udm.BatchOptions{Ctx: context.Background(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := udm.DensityBatchOpts(est, ds.X[:10], nil, udm.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != viaOpts[i] {
			t.Fatalf("row %d: Background Ctx %v != nil Ctx %v", i, direct[i], viaOpts[i])
		}
	}
}
