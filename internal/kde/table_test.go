package kde

import (
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

// mixedErrData draws n 3-D rows whose per-entry errors are zero for
// about a third of the entries, so every ψ = 0 branch of the kernel
// forms is exercised next to the ψ > 0 ones.
func mixedErrData(n int, seed int64) *dataset.Dataset {
	r := rng.New(seed)
	d := dataset.New("a", "b", "c")
	for i := 0; i < n; i++ {
		row := []float64{r.Norm(float64(i%3)-1, 0.8), r.Norm(0, 1), r.Norm(2, 0.5)}
		er := make([]float64, 3)
		for j := range er {
			if r.Float64() < 0.66 {
				er[j] = r.Float64() * 0.6
			}
		}
		_ = d.Append(row, er, dataset.Unlabeled)
	}
	return d
}

// tableSubsets lists subsets in ascending, non-ascending and repeated
// order: the table must take dims in the order given, as DensitySub does.
var tableSubsets = [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {1, 2}, {2, 1, 0}, {0, 1, 2}, {1, 0, 2}, {2, 2}}

// tableQueries mixes points inside the data with points far outside it,
// some far along only one dimension, so products reach zero part-way
// through a subset (where DensitySub stops early and the table does not).
func tableQueries(d *dataset.Dataset) [][]float64 {
	qs := append([][]float64(nil), d.X[:25]...)
	return append(qs,
		[]float64{0, 0, 0},
		[]float64{1e3, 0, 2},
		[]float64{0, -1e3, 2},
		[]float64{-0.5, 0.3, 1e4},
		[]float64{1e6, 1e6, 1e6},
	)
}

// assertTableBitIdentical checks every subset at every query against the
// estimator's own DensitySub, reusing one table throughout.
func assertTableBitIdentical(t *testing.T, name string, est Estimator, fill func([]float64, *FactorTable), qs [][]float64, tab *FactorTable) {
	t.Helper()
	zeros := 0
	for qi, x := range qs {
		fill(x, tab)
		for _, dims := range tableSubsets {
			want := est.DensitySub(x, dims)
			if got := tab.DensitySub(dims); !bitEqual(got, want) {
				t.Fatalf("%s query %d dims %v: table %x (%v), DensitySub %x (%v)", name, qi, dims,
					math.Float64bits(got), got, math.Float64bits(want), want)
			}
			if want == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatalf("%s: no query produced a zero density", name)
	}
}

// TestFactorTableBitIdenticalPoint pins the table to PointKDE.DensitySub
// for every kernel form: plain, normalized and paper error adjustment
// (ψ = 0 entries included), and estimators whose batch paths prune or
// use the fast exponential.
func TestFactorTableBitIdenticalPoint(t *testing.T) {
	d := mixedErrData(240, 31)
	var tab FactorTable
	for _, tc := range []struct {
		name   string
		opt    Options
		engine bool
	}{
		{"plain", Options{}, true},
		{"paper-without-adjust", Options{PaperKernel: true}, true},
		{"normalized", Options{ErrorAdjust: true}, true},
		{"paper", Options{ErrorAdjust: true, PaperKernel: true}, true},
		{"pruned", Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 1e-2}}, true},
		{"approx", Options{ErrorAdjust: true, Eval: evalopt.Options{Accuracy: kernel.Approx(1e-3)}}, true},
		{"paper-pruned-approx", Options{ErrorAdjust: true, PaperKernel: true, Eval: evalopt.Options{Prune: 1e-2, Accuracy: kernel.Approx(1e-3)}}, true},
	} {
		est, err := NewPoint(d, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (est.eng != nil) != tc.engine {
			t.Fatalf("%s: engine built = %v, want %v", tc.name, est.eng != nil, tc.engine)
		}
		assertTableBitIdentical(t, tc.name, est, est.FactorTable, tableQueries(d), &tab)
	}
}

// TestFactorTableBitIdenticalCluster is the ClusterKDE twin: weighted
// pseudo-points, Δ = 0 singletons next to wide clusters, both kernel
// forms, and prune/approx settings.
func TestFactorTableBitIdenticalCluster(t *testing.T) {
	d := mixedErrData(300, 32)
	var tab FactorTable
	for _, tc := range []struct {
		name   string
		opt    Options
		engine bool
	}{
		{"no-adjust", Options{}, true},
		{"paper-without-adjust", Options{PaperKernel: true}, true},
		{"normalized", Options{ErrorAdjust: true}, true},
		{"paper", Options{ErrorAdjust: true, PaperKernel: true}, true},
		{"pruned", Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 1e-2}}, true},
		{"approx", Options{ErrorAdjust: true, Eval: evalopt.Options{Accuracy: kernel.Approx(1e-3)}}, true},
		{"paper-pruned-approx", Options{ErrorAdjust: true, PaperKernel: true, Eval: evalopt.Options{Prune: 1e-2, Accuracy: kernel.Approx(1e-3)}}, true},
	} {
		// 200 clusters over 300 rows leaves many singletons, whose Δ is
		// zero along every dimension without recorded error.
		est, err := NewCluster(microcluster.Build(d, 200, rng.New(33)), tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (est.eng != nil) != tc.engine {
			t.Fatalf("%s: engine built = %v, want %v", tc.name, est.eng != nil, tc.engine)
		}
		zeroDelta := false
		for _, row := range est.deltas {
			for _, v := range row {
				zeroDelta = zeroDelta || v == 0
			}
		}
		if !zeroDelta {
			t.Fatalf("%s: no pseudo-point has Δ = 0", tc.name)
		}
		assertTableBitIdentical(t, tc.name, est, est.FactorTable, tableQueries(d), &tab)
	}
}

// TestFactorTableSteadyStateAllocs: a reused table allocates nothing to
// refill or to score a subset.
func TestFactorTableSteadyStateAllocs(t *testing.T) {
	d := mixedErrData(200, 34)
	est, err := NewCluster(microcluster.Build(d, 40, rng.New(35)), Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	var tab FactorTable
	dims := []int{2, 0}
	est.FactorTable(d.X[0], &tab)
	if n := testing.AllocsPerRun(50, func() {
		est.FactorTable(d.X[1], &tab)
		_ = tab.DensitySub(dims)
	}); n != 0 {
		t.Fatalf("%v allocations per refill and subset", n)
	}
}

// TestFactorTablePanicsOnBadInput: a query of the wrong length and a
// subset dimension out of range panic, as they do in DensitySub.
func TestFactorTablePanicsOnBadInput(t *testing.T) {
	est, err := NewPoint(gauss2(20, 0, 36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tab FactorTable
	est.FactorTable([]float64{0, 0}, &tab)
	for name, call := range map[string]func(){
		"short query":   func() { est.FactorTable([]float64{1}, &tab) },
		"dim too large": func() { tab.DensitySub([]int{0, 2}) },
		"negative dim":  func() { tab.DensitySub([]int{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			call()
		}()
	}
}
