package kde

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"udm/internal/dataset"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// batchFixture builds a perturbed dataset plus point and cluster
// estimators with error adjustment on.
func batchFixture(t *testing.T, n int) (*dataset.Dataset, *PointKDE, *ClusterKDE) {
	t.Helper()
	r := rng.New(41)
	ds := dataset.New("a", "b", "c")
	for i := 0; i < n; i++ {
		x := []float64{r.Norm(0, 1), r.Norm(3, 2), r.Norm(-2, 0.7)}
		e := []float64{0.2, 0.4, 0.1}
		if err := ds.Append(x, e, dataset.Unlabeled); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := NewPoint(ds, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	s := microcluster.Build(ds, 20, r.Split("mc"))
	cl, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds, pt, cl
}

// TestDensityBatchMatchesSerialExactly is the tentpole determinism
// gate: DensityBatchOpts at P=1 and P=8 must agree bit-for-bit with each
// other and with the serial DensitySub loop, over full and subspace
// dims, for both estimator kinds.
func TestDensityBatchMatchesSerialExactly(t *testing.T) {
	ds, pt, cl := batchFixture(t, 300)
	for _, dims := range [][]int{nil, {0}, {1, 2}} {
		for name, est := range map[string]Estimator{"point": pt, "cluster": cl} {
			evalDims := dims
			if evalDims == nil {
				evalDims = allDims(est.Dims())
			}
			want := make([]float64, ds.Len())
			for i, x := range ds.X {
				want[i] = est.DensitySub(x, evalDims)
			}
			for _, workers := range []int{1, 8} {
				got, err := DensityBatchOpts(est, ds.X, dims, BatchOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s dims=%v workers=%d: row %d = %v, want %v (not bit-identical)",
							name, dims, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestDensityQBatchMatchesSerialExactly(t *testing.T) {
	ds, pt, cl := batchFixture(t, 200)
	qerr := make([][]float64, ds.Len())
	for i := range qerr {
		if i%3 == 0 {
			qerr[i] = nil // mixed certain/uncertain queries
		} else {
			qerr[i] = []float64{0.3, 0.1, 0.2}
		}
	}
	for name, est := range map[string]Estimator{"point": pt, "cluster": cl} {
		dims := allDims(est.Dims())
		want := make([]float64, ds.Len())
		for i, x := range ds.X {
			want[i] = est.DensityQ(x, qerr[i], dims)
		}
		for _, workers := range []int{1, 8} {
			got, err := DensityQBatchOpts(est, ds.X, qerr, nil, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: row %d = %v, want %v", name, workers, i, got[i], want[i])
				}
			}
		}
		// nil Qerr reduces to DensityBatchOpts.
		plain, err := DensityQBatchOpts(est, ds.X, nil, nil, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := DensityBatchOpts(est, ds.X, nil, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != batch[i] {
				t.Fatalf("%s: nil-Qerr row %d = %v, want %v", name, i, plain[i], batch[i])
			}
		}
	}
}

// TestDensityBatchValidation: batch APIs error instead of panicking on
// malformed input.
func TestDensityBatchValidation(t *testing.T) {
	ds, pt, _ := batchFixture(t, 20)
	two := BatchOptions{Workers: 2}
	if _, err := DensityBatchOpts(pt, [][]float64{{1, 2}}, nil, two); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Errorf("short query row: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := DensityBatchOpts(pt, ds.X, []int{7}, two); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Errorf("out-of-range dim: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := DensityQBatchOpts(pt, ds.X, [][]float64{{1, 2, 3}}, nil, two); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Errorf("mismatched Qerr length: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := DensityQBatchOpts(pt, ds.X, make([][]float64, ds.Len()-1), nil, two); !errors.Is(err, udmerr.ErrDimensionMismatch) {
		t.Errorf("wrong Qerr row count: got %v, want ErrDimensionMismatch", err)
	}
	// Empty batch is fine.
	out, err := DensityBatchOpts(pt, nil, nil, BatchOptions{Workers: 4})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

func TestDensityBatchCancellation(t *testing.T) {
	ds, pt, _ := batchFixture(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DensityBatchOpts(pt, ds.X, nil, BatchOptions{Ctx: ctx, Workers: 4}); err == nil {
		t.Error("cancelled context did not abort the batch")
	}
	// A context that ends mid-chunk stops a serial batch (one chunk)
	// before its next row.
	if _, err := DensityBatchOpts(pt, ds.X, nil, BatchOptions{Ctx: endsAfter(5), Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("density batch past its context's end: got %v, want context.Canceled", err)
	}
	if _, err := DensityQBatchOpts(pt, ds.X, nil, nil, BatchOptions{Ctx: endsAfter(5), Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("density_q batch past its context's end: got %v, want context.Canceled", err)
	}
}

// endsAfter returns a context whose Err reports cancellation from its
// (n+1)-th call on.
func endsAfter(n int64) context.Context {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCVBandwidthsWorkersDeterministic: the CV grid search picks the
// same bandwidths for every worker count.
func TestCVBandwidthsWorkersDeterministic(t *testing.T) {
	ds, _, _ := batchFixture(t, 120)
	want, err := CVBandwidthsWorkers(ds, true, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := CVBandwidthsWorkers(ds, true, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: h[%d] = %v, want %v", workers, j, got[j], want[j])
			}
		}
	}
}
