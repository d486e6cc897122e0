package density

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
	"udm/internal/uncertain"
)

// The contract suite is the ladder's acceptance gate: every
// approximate backend is run against the exact engine on seeded
// datagen scenarios and must stay within the ε bound its own Info
// advertises. Seeds are fixed everywhere, so results are fully
// deterministic.

// scenario builds a seeded uncertain dataset from a generator profile.
type scenario struct {
	name string
	ds   *dataset.Dataset
}

func scenarios(t *testing.T, n int) []scenario {
	t.Helper()
	var out []scenario
	for _, c := range []struct {
		name string
		spec *datagen.Spec
	}{
		{"twoblobs", datagen.TwoBlobs(4)},
		{"adult", datagen.Adult()},
	} {
		ds, err := c.spec.Generate(n, rng.New(11))
		if err != nil {
			t.Fatalf("%s: generate: %v", c.name, err)
		}
		// Generate emits no per-entry errors; perturbation attaches the
		// ψ columns the error-adjusted estimators consume.
		noisy, err := uncertain.Perturb(ds, 0.15, rng.New(12))
		if err != nil {
			t.Fatalf("%s: perturb: %v", c.name, err)
		}
		out = append(out, scenario{name: c.name, ds: noisy})
	}
	return out
}

// maxRelErr compares a backend's batch output to the exact reference
// at the dataset's own rows (in-box, non-vanishing densities).
func maxRelErr(t *testing.T, est kde.Estimator, exact []float64, X [][]float64) float64 {
	t.Helper()
	got, err := kde.DensityBatchOpts(est, X, nil, kde.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatalf("DensityBatchOpts: %v", err)
	}
	var worst float64
	for i := range got {
		if exact[i] == 0 {
			continue
		}
		rel := math.Abs(got[i]-exact[i]) / exact[i]
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func exactReference(t *testing.T, ds *dataset.Dataset) []float64 {
	t.Helper()
	est, err := kde.NewPoint(ds, kde.Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kde.DensityBatchOpts(est, ds.X, nil, kde.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestExactBackendBitIdentical: the default backend is byte-for-byte
// the existing engine.
func TestExactBackendBitIdentical(t *testing.T) {
	for _, sc := range scenarios(t, 400) {
		ref := exactReference(t, sc.ds)
		for _, bk := range []evalopt.Backend{evalopt.BackendDefault, evalopt.BackendExact} {
			opt := kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Backend: bk}}
			b, info, err := New(sc.ds, opt)
			if err != nil {
				t.Fatalf("%s: New(%q): %v", sc.name, bk, err)
			}
			if !info.Exact || info.Epsilon != 0 {
				t.Errorf("%s: exact backend Info = %+v, want Exact", sc.name, info)
			}
			got, err := kde.DensityBatchOpts(b, sc.ds.X, nil, kde.BatchOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s/%q: row %d: %g != exact %g", sc.name, bk, i, got[i], ref[i])
				}
			}
			// Scalar path agrees too.
			if v := b.Density(sc.ds.X[0]); v != ref[0] {
				t.Errorf("%s/%q: Density = %g, want %g", sc.name, bk, v, ref[0])
			}
		}
	}
}

// TestGridBackendHonorsAdvertisedBound: measured error ≤ Info.Epsilon
// on in-box queries, for both ε-derived and cells-derived sizing.
func TestGridBackendHonorsAdvertisedBound(t *testing.T) {
	for _, sc := range scenarios(t, 500) {
		if sc.ds.Dims() > evalopt.MaxGridDims {
			continue
		}
		ref := exactReference(t, sc.ds)
		for _, eval := range []evalopt.Options{
			{Backend: evalopt.BackendGrid},                 // default ε
			{Backend: evalopt.BackendGrid, Epsilon: 0.02},  // tight ε
			{Backend: evalopt.BackendGrid, GridCells: 100}, // explicit resolution
		} {
			b, info, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: eval})
			if err != nil {
				t.Fatalf("%s: New(grid): %v", sc.name, err)
			}
			if info.Exact || info.Epsilon <= 0 {
				t.Fatalf("%s: grid Info = %+v", sc.name, info)
			}
			if worst := maxRelErr(t, b, ref, sc.ds.X); worst > info.Epsilon {
				t.Errorf("%s: grid(%+v) rel err %.4g > advertised %.4g", sc.name, eval, worst, info.Epsilon)
			}
			if b.Count() != sc.ds.Len() {
				t.Errorf("%s: grid Count = %d, want %d", sc.name, b.Count(), sc.ds.Len())
			}
		}
	}
}

// TestMicroBackendExactOverSummary: the micro rung is bit-identical to
// ClusterKDE over the same summary — Definition 1's additivity is the
// whole contract.
func TestMicroBackendExactOverSummary(t *testing.T) {
	sc := scenarios(t, 600)[0]
	eval := evalopt.Options{Backend: evalopt.BackendMicro, MicroClusters: 60, Seed: 3}
	b, info, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same summarization done by hand.
	s := microcluster.Build(sc.ds, 60, rng.New(3))
	est, err := kde.NewCluster(s, kde.Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kde.DensityBatchOpts(est, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kde.DensityBatchOpts(b, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("micro backend differs from ClusterKDE at %d: %g vs %g", i, got[i], want[i])
		}
	}
	if info.Backend != evalopt.BackendMicro || info.Exact {
		t.Errorf("micro Info = %+v", info)
	}
}

// TestFromSummarizerLadder: every backend builds from a summary; exact
// and micro coincide bit-for-bit, grid stays within contract against
// the summary-exact reference.
func TestFromSummarizerLadder(t *testing.T) {
	sc := scenarios(t, 800)[0]
	s := microcluster.Build(sc.ds, 120, rng.New(4))
	ref, err := kde.NewCluster(s, kde.Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kde.DensityBatchOpts(ref, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	infos := map[evalopt.Backend]Info{}
	for _, bk := range []evalopt.Backend{evalopt.BackendExact, evalopt.BackendMicro} {
		b, info, err := FromSummarizer(s, kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Backend: bk}})
		if err != nil {
			t.Fatalf("FromSummarizer(%q): %v", bk, err)
		}
		infos[bk] = info
		got, err := kde.DensityBatchOpts(b, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q over summary differs at %d", bk, i)
			}
		}
	}
	// One estimator, two promises: the rungs still describe themselves.
	if ex, mi := infos[evalopt.BackendExact], infos[evalopt.BackendMicro]; ex.Backend != evalopt.BackendExact ||
		mi.Backend != evalopt.BackendMicro || !ex.Exact || mi.Exact {
		t.Errorf("exact/micro over summary report %+v / %+v, want distinct backends, exact only for exact", ex, mi)
	}
	for _, eval := range []evalopt.Options{
		{Backend: evalopt.BackendGrid},
	} {
		b, info, err := FromSummarizer(s, kde.Options{ErrorAdjust: true, Eval: eval})
		if err != nil {
			t.Fatalf("FromSummarizer(%+v): %v", eval, err)
		}
		if worst := maxRelErr(t, b, want, sc.ds.X); worst > info.Epsilon {
			t.Errorf("%q over summary: rel err %.4g > advertised %.4g", eval.Backend, worst, info.Epsilon)
		}
	}
}

// TestSubspaceQueriesStayWithinLadder: a batch over a dims subset
// works on the default and exact backends and matches the reference.
func TestSubspaceQueriesStayWithinLadder(t *testing.T) {
	sc := scenarios(t, 500)[0]
	est, err := kde.NewPoint(sc.ds, kde.Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kde.DensityBatchOpts(est, sc.ds.X, []int{0}, kde.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range []evalopt.Backend{evalopt.BackendDefault, evalopt.BackendExact} {
		b, _, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Backend: bk}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := kde.DensityBatchOpts(b, sc.ds.X, []int{0}, kde.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q subspace differs from exact at %d: %g vs %g", bk, i, got[i], want[i])
			}
		}
	}
}

// TestInvalidOptionCombos: invalid ε/backend combinations surface as
// errors.Is(udmerr.ErrBadOption), per the facade error contract.
func TestInvalidOptionCombos(t *testing.T) {
	sc := scenarios(t, 50)[0]
	cases := []kde.Options{
		{Eval: evalopt.Options{Backend: "forest"}},
		{Eval: evalopt.Options{Backend: "hbe"}},
		{Eval: evalopt.Options{Backend: evalopt.BackendGrid, Epsilon: -0.5}},
		{Eval: evalopt.Options{Backend: evalopt.BackendGrid, GridCells: evalopt.MaxGridCells + 1}},
	}
	for _, opt := range cases {
		if _, _, err := New(sc.ds, opt); err == nil {
			t.Errorf("New(%+v): want error", opt)
		} else if !errors.Is(err, udmerr.ErrBadOption) {
			t.Errorf("New(%+v) error %v does not wrap ErrBadOption", opt, err)
		}
	}
	// Grid rejects dimensionality above the cap.
	wide, err := datagen.Ionosphere().Generate(100, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Dims() > evalopt.MaxGridDims {
		if _, _, err := New(wide, kde.Options{Eval: evalopt.Options{Backend: evalopt.BackendGrid}}); !errors.Is(err, udmerr.ErrBadOption) {
			t.Errorf("grid over %d dims: %v, want ErrBadOption", wide.Dims(), err)
		}
	}
}

// TestGridRungRendersGrid: the grid renderers take the grid rung's
// estimator like any other, through the canonical batch API.
func TestGridRungRendersGrid(t *testing.T) {
	sc := scenarios(t, 900)[0]
	b, _, err := New(sc.ds, kde.Options{ErrorAdjust: true,
		Eval: evalopt.Options{Backend: evalopt.BackendGrid}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sc.ds.MinMax()
	_, ys, err := kde.Grid1DOpts(b, 0, lo[0], hi[0], 32, kde.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != 33 {
		t.Fatalf("grid render length %d", len(ys))
	}
}

// TestWithAccuracyLadder: the exact and micro rungs built under the
// kernel surrogate stop advertising exactness and stay within its
// budget of the exact-kernel build.
func TestWithAccuracyLadder(t *testing.T) {
	sc := scenarios(t, 400)[0]
	for _, bk := range []evalopt.Backend{evalopt.BackendExact, evalopt.BackendMicro} {
		b, _, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Backend: bk}})
		if err != nil {
			t.Fatal(err)
		}
		acc := kernel.Approx(1e-6)
		ab, info, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Backend: bk, Accuracy: acc}})
		if err != nil {
			t.Fatalf("%q under %v: %v", bk, acc, err)
		}
		if info.Exact {
			t.Errorf("%q under %v still advertises Exact", bk, acc)
		}
		ref, err := kde.DensityBatchOpts(b, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := kde.DensityBatchOpts(ab, sc.ds.X, nil, kde.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if ref[i] == 0 {
				continue
			}
			if rel := math.Abs(got[i]-ref[i]) / ref[i]; rel > 1e-6 {
				t.Fatalf("%q under %v: rel err %g > 1e-6", bk, acc, rel)
			}
		}
	}
}

// bandwidthFor is the per-dimension bandwidth accessor both kde
// estimator types expose.
type bandwidthFor interface{ BandwidthFor(j int) float64 }

// TestGridBandwidthsMatchExactRung: over rows and over a summary, under
// the Silverman rule and under explicit bandwidths, the grid rung
// smooths with exactly the exact rung's bandwidths — the ones its
// advertised bound is stated against. Malformed explicit bandwidths
// fail with the sentinel kde uses for them.
func TestGridBandwidthsMatchExactRung(t *testing.T) {
	sc := scenarios(t, 300)[0]
	s := microcluster.Build(sc.ds, 50, rng.New(5))
	d := sc.ds.Dims()
	build := map[string]func(kde.Options) (kde.Estimator, error){
		"rows": func(opt kde.Options) (kde.Estimator, error) {
			est, _, err := New(sc.ds, opt)
			return est, err
		},
		"summary": func(opt kde.Options) (kde.Estimator, error) {
			est, _, err := FromSummarizer(s, opt)
			return est, err
		},
	}
	for input, newRung := range build {
		for rule, bw := range map[string][]float64{"silverman": nil, "explicit": {0.4, 0.7}} {
			exact, err := newRung(kde.Options{ErrorAdjust: true, Bandwidths: bw})
			if err != nil {
				t.Fatalf("%s/%s: exact: %v", input, rule, err)
			}
			grid, err := newRung(kde.Options{ErrorAdjust: true, Bandwidths: bw,
				Eval: evalopt.Options{Backend: evalopt.BackendGrid}})
			if err != nil {
				t.Fatalf("%s/%s: grid: %v", input, rule, err)
			}
			for j := 0; j < d; j++ {
				want := exact.(bandwidthFor).BandwidthFor(j)
				if got := grid.(bandwidthFor).BandwidthFor(j); got != want {
					t.Errorf("%s/%s: grid h[%d] = %v, exact rung %v", input, rule, j, got, want)
				}
			}
		}
		for _, c := range []struct {
			bw   []float64
			want error
		}{
			{[]float64{0.4}, udmerr.ErrDimensionMismatch},
			{[]float64{0.4, 0.7, 0.1}, udmerr.ErrDimensionMismatch},
			{[]float64{0.4, 0}, udmerr.ErrBadOption},
			{[]float64{-0.4, 0.7}, udmerr.ErrBadOption},
			{[]float64{math.NaN(), 0.7}, udmerr.ErrBadOption},
			{[]float64{0.4, math.Inf(1)}, udmerr.ErrBadOption},
		} {
			_, err := newRung(kde.Options{ErrorAdjust: true, Bandwidths: c.bw,
				Eval: evalopt.Options{Backend: evalopt.BackendGrid}})
			if !errors.Is(err, c.want) {
				t.Errorf("%s: grid with bandwidths %v: error %v, want %v", input, c.bw, err, c.want)
			}
		}
	}
}

// rungPrint is what a build under some evaluation options observably
// is: its self-description, its micro-cluster count, and its densities.
type rungPrint struct {
	info      Info
	clusters  int
	densities []float64
}

// TestEveryGrammarKeyReachesAConstructor: each key evalopt.Parse
// accepts changes what density.New builds, so no key is parsed and then
// ignored. The rows are checked against the grammar's own key list, so
// a key added to the grammar without a reader has no row that can pass;
// a row naming a key outside the grammar fails to parse.
func TestEveryGrammarKeyReachesAConstructor(t *testing.T) {
	sc := scenarios(t, 400)[0]
	fingerprint := func(eval string) rungPrint {
		t.Helper()
		ev, err := evalopt.Parse(eval)
		if err != nil {
			t.Fatalf("Parse(%q): %v", eval, err)
		}
		est, info, err := New(sc.ds, kde.Options{ErrorAdjust: true, Eval: ev})
		if err != nil {
			t.Fatalf("New(%q): %v", eval, err)
		}
		p := rungPrint{info: info}
		if c, ok := est.(*kde.ClusterKDE); ok {
			p.clusters = c.Clusters()
		}
		if p.densities, err = kde.DensityBatchOpts(est, sc.ds.X[:40], nil, kde.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rows := []struct{ key, base, value string }{
		{"backend", "", "micro"},
		{"epsilon", "grid", "0.02"},
		{"eps", "grid", "0.02"},
		{"cells", "grid", "7"},
		{"prune", "", "1e-3"},
		{"accuracy", "", "approx(1e-3)"},
		{"q", "micro", "20"},
		{"seed", "micro", "9"},
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.key] = true
		with := r.key + "=" + r.value
		if r.base != "" {
			with = r.base + "," + with
		}
		if without, got := fingerprint(r.base), fingerprint(with); reflect.DeepEqual(without, got) {
			t.Errorf("key %q: %q builds the same rung as %q (%+v)", r.key, with, r.base, got.info)
		}
	}
	for _, k := range evalopt.Keys() {
		if !covered[k] {
			t.Errorf("grammar key %q has no row: show that a constructor reads it", k)
		}
	}
}
