package kde

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"udm/internal/evalopt"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// bitEqual reports exact bit equality, treating NaN == NaN.
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// pointOptionMatrix enumerates every kernel form the SoA engine encodes
// for PointKDE, with and without recorded errors.
func pointOptionMatrix() []struct {
	name string
	err  float64 // per-entry error fed to gauss2 (0 = none)
	opt  Options
} {
	return []struct {
		name string
		err  float64
		opt  Options
	}{
		{"plain", 0, Options{}},
		{"plain-ignored-errs", 0.5, Options{}}, // errors present but ErrorAdjust off
		{"normalized", 0.5, Options{ErrorAdjust: true}},
		{"paper", 0.5, Options{ErrorAdjust: true, PaperKernel: true}},
		{"erradjust-no-errs", 0, Options{ErrorAdjust: true}},
	}
}

// TestDensityBatchBitIdenticalToScalar is the SoA regression contract:
// in exact mode with pruning off, the batch engine must reproduce the
// scalar DensitySub — the unchanged pre-refactor reference path — bit
// for bit, for every option mode, dimension subset and worker count.
func TestDensityBatchBitIdenticalToScalar(t *testing.T) {
	for _, tc := range pointOptionMatrix() {
		d := gauss2(300, tc.err, 21)
		est, err := NewPoint(d, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if est.eng == nil {
			t.Fatalf("%s: Gaussian estimator did not build the SoA engine", tc.name)
		}
		for _, dims := range [][]int{nil, {0}, {1}, {0, 1}, {1, 0}} {
			for _, workers := range []int{1, 4} {
				got, err := DensityBatchOpts(est, d.X, dims, BatchOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				ref := dims
				if ref == nil {
					ref = []int{0, 1}
				}
				for i, x := range d.X {
					want := est.DensitySub(x, ref)
					if !bitEqual(got[i], want) {
						t.Fatalf("%s dims=%v workers=%d row %d: batch %x scalar %x",
							tc.name, dims, workers, i, math.Float64bits(got[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestDensityQBatchBitIdenticalToScalar pins the uncertain-query fast
// path to the scalar DensityQ, including nil query-error rows.
func TestDensityQBatchBitIdenticalToScalar(t *testing.T) {
	for _, withErrs := range []float64{0, 0.5} {
		d := gauss2(200, withErrs, 22)
		est, err := NewPoint(d, Options{ErrorAdjust: true})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(23)
		qerr := make([][]float64, len(d.X))
		for i := range qerr {
			if i%3 == 0 {
				continue // nil row: certain query
			}
			qerr[i] = []float64{r.Float64() * 0.8, r.Float64() * 0.8}
		}
		got, err := DensityQBatchOpts(est, d.X, qerr, nil, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range d.X {
			want := est.DensityQ(x, qerr[i], []int{0, 1})
			if !bitEqual(got[i], want) {
				t.Fatalf("errs=%v row %d: batch %x scalar %x", withErrs, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestClusterBatchBitIdenticalToScalar covers both ClusterKDE kernel
// forms, plus the weighted DensityQ path.
func TestClusterBatchBitIdenticalToScalar(t *testing.T) {
	d := gauss2(600, 0.5, 24)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"normalized", Options{ErrorAdjust: true}},
		{"paper", Options{ErrorAdjust: true, PaperKernel: true}},
		{"no-adjust", Options{}},
	} {
		s := microcluster.Build(d, 40, rng.New(25))
		est, err := NewCluster(s, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if est.eng == nil {
			t.Fatalf("%s: cluster estimator did not build the SoA engine", tc.name)
		}
		got, err := DensityBatchOpts(est, d.X, nil, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		qe := []float64{0.3, 0.1}
		gotQ, err := DensityQBatchOpts(est, d.X, repeatRows(qe, len(d.X)), nil, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, x := range d.X {
			if want := est.DensitySub(x, []int{0, 1}); !bitEqual(got[i], want) {
				t.Fatalf("%s row %d: batch %x scalar %x", tc.name, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
			if want := est.DensityQ(x, qe, []int{0, 1}); !bitEqual(gotQ[i], want) {
				t.Fatalf("%s row %d (Q): batch %x scalar %x", tc.name, i,
					math.Float64bits(gotQ[i]), math.Float64bits(want))
			}
		}
	}
}

func repeatRows(row []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = row
	}
	return out
}

// prunedMatrix builds the clustered dataset and tolerance grid shared
// by the pruning tests.
func prunedCases() []float64 { return []float64{1e-3, 1e-6, 1e-9} }

// TestPrunedWithinTolerance: with Prune=tol every batch density must be
// within relative tol of the exact estimate, under-approaching only
// (truncation discards nonnegative mass), for both certain and
// uncertain queries, points and clusters.
func TestPrunedWithinTolerance(t *testing.T) {
	d := blobGrid(1200, 4, 0.2, 27)
	exact, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DensityBatchOpts(exact, d.X, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	qe := []float64{0.4, 0.2}
	wantQ, err := DensityQBatchOpts(exact, d.X, repeatRows(qe, len(d.X)), nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range prunedCases() {
		pruned, err := NewPoint(d, Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: tol}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DensityBatchOpts(pruned, d.X, nil, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		gotQ, err := DensityQBatchOpts(pruned, d.X, repeatRows(qe, len(d.X)), nil, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			checkPruneErr(t, fmt.Sprintf("tol=%g row %d", tol, i), got[i], want[i], tol)
			checkPruneErr(t, fmt.Sprintf("tol=%g row %d (Q)", tol, i), gotQ[i], wantQ[i], tol)
		}
	}
}

func checkPruneErr(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if got > want*(1+1e-12) {
		t.Fatalf("%s: pruned density %v exceeds exact %v", label, got, want)
	}
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: pruned %v for exact 0", label, got)
		}
		return
	}
	if re := (want - got) / want; re > tol {
		t.Fatalf("%s: relative truncation error %.3g > tol %g (got %v want %v)", label, re, tol, got, want)
	}
}

// TestPrunedClusterWithinTolerance exercises the weighted (WSum) bound.
func TestPrunedClusterWithinTolerance(t *testing.T) {
	d := blobGrid(1200, 4, 0.2, 28)
	s := microcluster.Build(d, 64, rng.New(29))
	exact, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DensityBatchOpts(exact, d.X, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range prunedCases() {
		pruned, err := NewCluster(s, Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: tol}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DensityBatchOpts(pruned, d.X, nil, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			checkPruneErr(t, fmt.Sprintf("cluster tol=%g row %d", tol, i), got[i], want[i], tol)
		}
	}
}

// TestPruningActuallyPrunes confirms the traversal skips work on
// clustered data — the accuracy tests alone would pass even if the
// bound never fired.
func TestPruningActuallyPrunes(t *testing.T) {
	d := blobGrid(1000, 4, 0.2, 30)
	est, err := NewPoint(d, Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	e := est.eng
	if e == nil || e.tree == nil {
		t.Fatal("Prune > 0 did not build the spatial index")
	}
	w := walker{e: e, q: d.X[0], dims: []int{0, 1}, exp: math.Exp}
	w.walk(e.tree.Root())
	if w.skipped == 0 {
		t.Fatal("pruned traversal evaluated every point on well-separated blobs")
	}
	if w.skipped < int64(len(d.X))/2 {
		t.Errorf("pruned only %d of %d points; expected the far field (most blobs) to be skipped", w.skipped, len(d.X))
	}
}

// TestPrunedWalkAllocatesPerBatch: the pruned walk evaluates an
// uncertain query without allocating, at any dimensionality (d = 17
// here), so a batch's allocations do not grow with its row count.
func TestPrunedWalkAllocatesPerBatch(t *testing.T) {
	const d = 17
	r := rng.New(33)
	s := microcluster.NewSummarizer(60, d)
	X, Qerr := make([][]float64, 64), make([][]float64, 64)
	for i := 0; i < 600; i++ {
		x, e := make([]float64, d), make([]float64, d)
		for j := range x {
			x[j], e[j] = r.Norm(0, 1), 0.1
		}
		s.Add(x, e)
		if i < len(X) {
			X[i], Qerr[i] = x, e
		}
	}
	est, err := NewCluster(s, Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DensityQBatchOpts(est, X[:n], Qerr[:n], nil, BatchOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Two allocations of slack: under -race the scratch pool may drop
	// its buffer, costing one more allocation per batch, not per row.
	if one, all := allocs(1), allocs(len(X)); all > one+2 {
		t.Fatalf("pruned uncertain-query batch: %v allocs for 1 row, %v for %d rows", one, all, len(X))
	}
}

// TestPruneZeroTakesFlatPath: Prune=0 must not build the index and must
// stay on the bit-identical flat path.
func TestPruneZeroTakesFlatPath(t *testing.T) {
	d := gauss2(100, 0.5, 31)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.eng.tree != nil || est.eng.sub != nil {
		t.Fatal("Prune=0 built a spatial index")
	}
}

// TestApproxDensityRelErr is the Approx(ε) property test over a seeded
// random corpus: for every dataset shape, option mode and ε, batch
// densities under Approx(ε) stay within relative ε of exact-mode
// results.
func TestApproxDensityRelErr(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := gauss2(150, 0.3+0.1*float64(seed%3), 40+seed)
		for _, eps := range []float64{1e-3, 1e-6} {
			for _, prune := range []float64{0, eps} {
				opt := Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: prune, Accuracy: kernel.Approx(eps)}}
				approx, err := NewPoint(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := NewPoint(d, Options{ErrorAdjust: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err := DensityBatchOpts(approx, d.X, nil, BatchOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				want, err := DensityBatchOpts(exact, d.X, nil, BatchOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				// Truncation (≤ prune) and surrogate error (≤ eps) can
				// stack; hold the combination to the sum of budgets.
				budget := eps + prune
				for i := range want {
					if want[i] == 0 {
						continue
					}
					if re := math.Abs(got[i]-want[i]) / want[i]; re > budget {
						t.Fatalf("seed=%d eps=%g prune=%g row %d: rel err %.3g > %.3g",
							seed, eps, prune, i, re, budget)
					}
				}
			}
		}
	}
}

// TestWithAccuracy covers the per-request accuracy override: sharing,
// validation, and exact-copy bit identity.
func TestWithAccuracy(t *testing.T) {
	d := gauss2(120, 0.5, 50)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := est.WithAccuracy(kernel.Approx(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if approx.eng == est.eng {
		t.Fatal("WithAccuracy must not mutate the receiver's engine")
	}
	if approx.eng.pool != est.eng.pool {
		t.Fatal("WithAccuracy copies must share the scratch pool")
	}
	// Round-tripping back to exact must reproduce the original bits.
	back, err := approx.WithAccuracy(kernel.Exact())
	if err != nil {
		t.Fatal(err)
	}
	a, err := DensityBatchOpts(est, d.X[:20], nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DensityBatchOpts(back, d.X[:20], nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bitEqual(a[i], b[i]) {
			t.Fatalf("row %d: exact round-trip changed bits", i)
		}
	}
	if _, err := est.WithAccuracy(kernel.Approx(math.NaN())); err == nil {
		t.Fatal("invalid accuracy accepted")
	}
	// Cluster variant.
	s := microcluster.Build(d, 20, rng.New(51))
	ce, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.WithAccuracy(kernel.Approx(1e-6)); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidatePruneAccuracy pins the new Options validation.
func TestOptionsValidatePruneAccuracy(t *testing.T) {
	d := gauss2(50, 0, 60)
	bad := []Options{
		{Eval: evalopt.Options{Prune: -1}},
		{Eval: evalopt.Options{Prune: math.NaN()}},
		{Eval: evalopt.Options{Prune: math.Inf(1)}},
		{Eval: evalopt.Options{Accuracy: kernel.Approx(-1)}},
	}
	for i, opt := range bad {
		if _, err := NewPoint(d, opt); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if _, err := NewPoint(d, Options{Eval: evalopt.Options{Prune: 1e-6, Accuracy: kernel.Approx(1e-3)}}); err != nil {
		t.Errorf("valid pruned+approx options rejected: %v", err)
	}
}

// TestEveryEstimatorHasEngine: the Gaussian is the only kernel, so every
// estimator either constructor builds — and every accuracy-switched
// view of one — carries its SoA engine, whatever the kernel form,
// pruning or accuracy.
func TestEveryEstimatorHasEngine(t *testing.T) {
	d := gauss2(120, 0.4, 61)
	s := microcluster.Build(d, 20, rng.New(62))
	for _, adjust := range []bool{false, true} {
		for _, paper := range []bool{false, true} {
			for _, prune := range []float64{0, 1e-3} {
				for _, acc := range []kernel.AccuracyMode{kernel.Exact(), kernel.Approx(1e-6)} {
					opt := Options{ErrorAdjust: adjust, PaperKernel: paper, Eval: evalopt.Options{Prune: prune, Accuracy: acc}}
					name := fmt.Sprintf("adjust=%v paper=%v prune=%v acc=%v", adjust, paper, prune, acc)
					pt, err := NewPoint(d, opt)
					if err != nil {
						t.Fatalf("%s: NewPoint: %v", name, err)
					}
					cl, err := NewCluster(s, opt)
					if err != nil {
						t.Fatalf("%s: NewCluster: %v", name, err)
					}
					ptView, err := pt.WithAccuracy(kernel.Approx(1e-3))
					if err != nil {
						t.Fatal(err)
					}
					clView, err := cl.WithAccuracy(kernel.Exact())
					if err != nil {
						t.Fatal(err)
					}
					for kind, est := range map[string]Estimator{"point": pt, "cluster": cl, "point view": ptView, "cluster view": clView} {
						if est.soa() == nil {
							t.Errorf("%s: %s estimator has no engine", name, kind)
						}
					}
				}
			}
		}
	}
}

// TestNewClusterRejectsNonFiniteSums: a summary whose Definition-1 sums
// overflowed (CF2x = +Inf) has no finite bandwidth, so construction
// fails with ErrBadData instead of building an estimator that answers
// NaN.
func TestNewClusterRejectsNonFiniteSums(t *testing.T) {
	ok := microcluster.NewFeature(2)
	ok.Add([]float64{1, 2}, nil, 1)
	ok.Add([]float64{2, 3}, nil, 2)
	bad := ok.Clone()
	bad.CF2[0] = math.Inf(1)
	s, err := microcluster.FromFeatures([]*microcluster.Feature{ok, bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(s, Options{ErrorAdjust: true}); !errors.Is(err, udmerr.ErrBadData) {
		t.Fatalf("NewCluster over CF2x = +Inf: got %v, want ErrBadData", err)
	}
}
