package stream

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

func engine(t *testing.T, opt Options) *Engine {
	t.Helper()
	e, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	cases := []Options{
		{MicroClusters: 0, Dims: 2},
		{MicroClusters: 2, Dims: 0},
		{MicroClusters: 2, Dims: 2, SnapshotEvery: -1},
		{MicroClusters: 2, Dims: 2, MaxSnapshots: 1},
	}
	for i, opt := range cases {
		if _, err := NewEngine(opt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestEngineCountsAndSnapshots(t *testing.T) {
	e := engine(t, Options{MicroClusters: 4, Dims: 1, SnapshotEvery: 10})
	r := rng.New(1)
	for i := 0; i < 35; i++ {
		e.Add([]float64{r.Norm(0, 1)}, nil, int64(i))
	}
	if e.Count() != 35 {
		t.Fatalf("Count = %d", e.Count())
	}
	snaps := e.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("%d snapshots after 35 records at cadence 10", len(snaps))
	}
	if snaps[0].At != 9 || snaps[0].Count != 10 {
		t.Fatalf("first snapshot %+v", snaps[0])
	}
	if snaps[2].At != 29 || snaps[2].Count != 30 {
		t.Fatalf("third snapshot %+v", snaps[2])
	}
	// Forced snapshot captures the live tail.
	s := e.Snapshot()
	if s.Count != 35 || s.At != 34 {
		t.Fatalf("forced snapshot %+v", s)
	}
}

func TestSnapshotsAreDeepCopies(t *testing.T) {
	e := engine(t, Options{MicroClusters: 2, Dims: 1, SnapshotEvery: 5})
	for i := 0; i < 5; i++ {
		e.Add([]float64{1}, nil, int64(i))
	}
	snap := e.Snapshots()[0]
	before := snap.Feats[0].CF1[0]
	for i := 5; i < 50; i++ {
		e.Add([]float64{1}, nil, int64(i))
	}
	if snap.Feats[0].CF1[0] != before {
		t.Fatal("snapshot mutated by later ingestion")
	}
}

func TestWindowSubtraction(t *testing.T) {
	// Two phases: values near 0 for t in [0,99], near 10 for t in
	// [100,199]. The (99, 199] window must contain only phase-two mass.
	e := engine(t, Options{MicroClusters: 4, Dims: 1, SnapshotEvery: 50})
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		v := r.Norm(0, 0.5)
		if i >= 100 {
			v = r.Norm(10, 0.5)
		}
		e.Add([]float64{v}, []float64{0.1}, int64(i))
	}
	feats, err := e.Window(99, 199)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sum float64
	for _, f := range feats {
		n += f.N
		sum += f.CF1[0]
	}
	if n != 100 {
		t.Fatalf("window holds %d points, want 100", n)
	}
	if mean := sum / float64(n); mean < 9 || mean > 11 {
		t.Fatalf("window mean %v, want ≈10", mean)
	}
	// Full-history window equals the live state.
	all, err := e.Window(-1, 199)
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	for _, f := range all {
		n += f.N
	}
	if n != 200 {
		t.Fatalf("full window holds %d points", n)
	}
}

func TestWindowErrors(t *testing.T) {
	e := engine(t, Options{MicroClusters: 2, Dims: 1, SnapshotEvery: 10})
	for i := 0; i < 30; i++ {
		e.Add([]float64{1}, nil, int64(i))
	}
	if _, err := e.Window(5, 5); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := e.Window(3, 20); err == nil {
		t.Error("window starting before the first snapshot accepted")
	}
}

func TestWindowToDensity(t *testing.T) {
	// The windowed features feed straight into density estimation.
	e := engine(t, Options{MicroClusters: 8, Dims: 1, SnapshotEvery: 100})
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		center := 0.0
		if i >= 500 {
			center = 6.0
		}
		e.Add([]float64{r.Norm(center, 0.4)}, []float64{0.2}, int64(i))
	}
	feats, err := e.Window(499, 999)
	if err != nil {
		t.Fatal(err)
	}
	s, err := microcluster.FromFeatures(feats)
	if err != nil {
		t.Fatal(err)
	}
	est, err := kde.NewCluster(s, kde.Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(est.Density([]float64{6}) > 10*est.Density([]float64{0})) {
		t.Fatalf("window density should concentrate at 6: f(6)=%v f(0)=%v",
			est.Density([]float64{6}), est.Density([]float64{0}))
	}
}

func TestEqualWindows(t *testing.T) {
	e := engine(t, Options{MicroClusters: 4, Dims: 1, SnapshotEvery: 25})
	r := rng.New(20)
	for i := 0; i < 400; i++ {
		e.Add([]float64{r.Norm(float64(i/100), 0.1)}, nil, int64(i))
	}
	wins, err := e.EqualWindows(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 4 {
		t.Fatalf("%d windows", len(wins))
	}
	total := 0
	for w, feats := range wins {
		n := 0
		var sum float64
		for _, f := range feats {
			n += f.N
			sum += f.CF1[0]
		}
		total += n
		// Each window ≈ 100 records whose mean tracks its phase value.
		if n < 75 || n > 125 {
			t.Fatalf("window %d holds %d records", w, n)
		}
		if mean := sum / float64(n); mean < float64(w)-0.5 || mean > float64(w)+0.5 {
			t.Fatalf("window %d mean %v, want ≈%d", w, mean, w)
		}
	}
	if total != 400 {
		t.Fatalf("windows cover %d records", total)
	}
	if _, err := e.EqualWindows(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.EqualWindows(401); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSnapshotThinning(t *testing.T) {
	e := engine(t, Options{MicroClusters: 2, Dims: 1, SnapshotEvery: 1, MaxSnapshots: 8})
	for i := 0; i < 100; i++ {
		e.Add([]float64{1}, nil, int64(i))
	}
	snaps := e.Snapshots()
	if len(snaps) > 8 {
		t.Fatalf("%d snapshots retained, cap 8", len(snaps))
	}
	// Ordered by time, newest present.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].At <= snaps[i-1].At {
			t.Fatal("snapshots out of order")
		}
	}
	if snaps[len(snaps)-1].At != 99 {
		t.Fatalf("newest snapshot at %d, want 99", snaps[len(snaps)-1].At)
	}
	// Older history coarser than recent history.
	oldGap := snaps[1].At - snaps[0].At
	newGap := snaps[len(snaps)-1].At - snaps[len(snaps)-2].At
	if oldGap < newGap {
		t.Fatalf("old gap %d < new gap %d; thinning should coarsen the past", oldGap, newGap)
	}
}

func TestConcurrentProducers(t *testing.T) {
	e := engine(t, Options{MicroClusters: 8, Dims: 2, SnapshotEvery: 100})
	var wg sync.WaitGroup
	const producers, each = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(int64(p))
			for i := 0; i < each; i++ {
				e.Add([]float64{r.Norm(0, 1), r.Norm(0, 1)},
					[]float64{0.1, 0.1}, int64(p*each+i))
			}
		}(p)
	}
	wg.Wait()
	if e.Count() != producers*each {
		t.Fatalf("Count = %d, want %d", e.Count(), producers*each)
	}
	s, err := e.Summarizer()
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != producers*each {
		t.Fatalf("summarizer count %d", s.Count())
	}
}

func TestFeatureSubValidation(t *testing.T) {
	a := microcluster.NewFeature(1)
	b := microcluster.NewFeature(2)
	if _, err := a.Sub(b); err == nil {
		t.Error("dim mismatch accepted")
	}
	c := microcluster.NewFeature(1)
	c.Add([]float64{1}, nil, 0)
	if _, err := a.Sub(c); err == nil {
		t.Error("subtracting larger feature accepted")
	}
}

// TestAddBatchRefusesNonFiniteTotals: 1.3e154² is finite, but two of
// them overflow a CF2x (or EF2x) sum. AddBatch refuses such a batch
// whole — whether it overflows on its own or only on top of the
// engine's running totals — and leaves the summary, the count and the
// tail exactly as they were.
func TestAddBatchRefusesNonFiniteTotals(t *testing.T) {
	e := engine(t, Options{MicroClusters: 4, Dims: 2})
	if err := e.AddBatch([][]float64{{0, 1}, {1, 0}, {2, 2}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	sumBits := func() []uint64 {
		s, err := e.Summarizer()
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, f := range s.Features() {
			for j := range f.CF2 {
				bits = append(bits, math.Float64bits(f.CF1[j]), math.Float64bits(f.CF2[j]), math.Float64bits(f.EF2[j]))
			}
		}
		return bits
	}
	before := sumBits()
	const big = 1.3e154
	refuse := func(name string, xs, errs [][]float64) {
		t.Helper()
		n := e.Count()
		if err := e.AddBatch(xs, errs, nil); !errors.Is(err, udmerr.ErrBadData) {
			t.Fatalf("%s: got %v, want ErrBadData", name, err)
		}
		if e.Count() != n {
			t.Fatalf("%s: count moved %d → %d", name, n, e.Count())
		}
		if recs, _ := e.TailSince(int64(n)); len(recs) != 0 {
			t.Fatalf("%s: %d refused records reached the tail", name, len(recs))
		}
	}
	refuse("two huge values", [][]float64{{0, 0}, {big, 0}, {big, 0}}, nil)
	refuse("two huge errors", [][]float64{{0, 0}, {1, 1}}, [][]float64{{0, big}, {0, big}})
	if got := sumBits(); !slices.Equal(got, before) {
		t.Fatal("a refused batch changed the summary")
	}

	// One huge value fits; a second, in a later batch, would overflow
	// the running total.
	if err := e.AddBatch([][]float64{{big, 0}}, nil, nil); err != nil {
		t.Fatalf("one huge value: %v", err)
	}
	refuse("totals overflow", [][]float64{{big, 0}}, nil)

	// A nil ts stamps each record with its ingest ordinal.
	recs, _ := e.TailSince(0)
	for _, r := range recs {
		if r.TS != r.Seq {
			t.Fatalf("record %d stamped %d, want its ordinal", r.Seq, r.TS)
		}
	}
}
