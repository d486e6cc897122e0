package microcluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

func TestSummarizerSeedsThenAssigns(t *testing.T) {
	s := NewSummarizer(2, 1)
	s.Add([]float64{0}, nil)
	s.Add([]float64{10}, nil)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after seeding", s.Len())
	}
	// Points near 0 go to cluster 0, near 10 to cluster 1; no new clusters.
	s.Add([]float64{1}, nil)
	s.Add([]float64{9}, nil)
	s.Add([]float64{-1}, nil)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, clusters must never be created beyond q", s.Len())
	}
	if s.Feature(0).N != 3 || s.Feature(1).N != 2 {
		t.Fatalf("cluster sizes %d/%d, want 3/2", s.Feature(0).N, s.Feature(1).N)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	// Centroids track the means.
	if got := s.Centroid(0)[0]; got != 0 {
		t.Fatalf("centroid 0 = %v, want 0", got)
	}
	if got := s.Centroid(1)[0]; got != 9.5 {
		t.Fatalf("centroid 1 = %v, want 9.5", got)
	}
}

func TestErrorAdjustedAssignment(t *testing.T) {
	// The Figure-2 scenario: a point is nearer centroid B in Euclidean
	// terms, but its error along that axis makes centroid A the
	// error-adjusted nearest.
	s := NewSummarizer(2, 2)
	s.Add([]float64{0, 0}, nil)  // centroid A
	s.Add([]float64{10, 0}, nil) // centroid B
	// Point at (6,0): Euclidean-closer to B (16 vs 36). Error 6 on dim 0:
	// adjusted distance to A = max(0,36-36)=0, to B = max(0,16-36)=0...
	// both zero; tie keeps the first. Use error 5.5: A = 36-30.25 = 5.75,
	// B = 16-30.25 → 0. B still wins. So mirror the paper: the error must
	// favor A via dim-asymmetry. Put the point at (6,1) with errors (6,0):
	// A: max(0,36-36)+1 = 1; B: max(0,16-36)+1 = 1 → tie. Instead verify
	// the simpler directional claim: with a large dim-0 error the dim-0
	// displacement stops mattering and dim-1 decides.
	x := []float64{6, 2}
	err := []float64{100, 0}
	s2 := NewSummarizer(2, 2)
	s2.Add([]float64{0, 2}, nil)  // A: same dim-1 as x
	s2.Add([]float64{10, 8}, nil) // B: Euclidean-closer overall? A: 36+0=36, B: 16+36=52.
	// Make B Euclidean-closer by moving x.
	x = []float64{9, 2}
	// Euclidean: A = 81, B = 1+36 = 37 → B. Error-adjusted with ψ=(100,0):
	// A = max(0,81-10000)+0 = 0; B = max(0,1-10000)+36 = 36 → A.
	if got := s2.Nearest(x, err); got != 0 {
		t.Fatalf("error-adjusted nearest = %d, want 0 (cluster A)", got)
	}
	if got := s2.Nearest(x, nil); got != 1 {
		t.Fatalf("unadjusted nearest = %d, want 1 (cluster B)", got)
	}
	_ = s
}

func TestSummarizerConservesMassAndMean(t *testing.T) {
	// The merged micro-cluster statistics must equal the whole data set's
	// statistics regardless of how points were routed.
	r := rng.New(3)
	s := NewSummarizer(7, 2)
	var sum0, sum1 float64
	const n = 500
	for i := 0; i < n; i++ {
		x := []float64{r.Norm(0, 1), r.Norm(5, 3)}
		e := []float64{math.Abs(r.Norm(0, 0.5)), 0}
		sum0 += x[0]
		sum1 += x[1]
		s.Add(x, e)
	}
	if s.Count() != n {
		t.Fatalf("Count = %d", s.Count())
	}
	total := s.TotalFeature()
	if math.Abs(total.CF1[0]-sum0) > 1e-6 || math.Abs(total.CF1[1]-sum1) > 1e-6 {
		t.Fatalf("merged CF1 = %v, want [%v %v]", total.CF1, sum0, sum1)
	}
	sig := s.Sigmas()
	if math.Abs(sig[0]-1) > 0.15 || math.Abs(sig[1]-3) > 0.4 {
		t.Fatalf("Sigmas = %v, want ≈[1 3]", sig)
	}
}

func TestBuildFromDataset(t *testing.T) {
	d := dataset.New("x")
	for i := 0; i < 100; i++ {
		_ = d.Append([]float64{float64(i % 10)}, []float64{0.1}, dataset.Unlabeled)
	}
	s := Build(d, 5, rng.New(1))
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d", s.Count())
	}
	// Deterministic under the same seed.
	s2 := Build(d, 5, rng.New(1))
	for i := 0; i < 5; i++ {
		if s.Feature(i).N != s2.Feature(i).N {
			t.Fatal("Build not deterministic under fixed seed")
		}
	}
	// Fewer rows than q: one cluster per row.
	tiny := dataset.New("x")
	_ = tiny.Append([]float64{1}, nil, dataset.Unlabeled)
	_ = tiny.Append([]float64{2}, nil, dataset.Unlabeled)
	st := Build(tiny, 10, nil)
	if st.Len() != 2 {
		t.Fatalf("tiny Len = %d, want 2", st.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(9)
	s := NewSummarizer(4, 3)
	for i := 0; i < 50; i++ {
		s.Add([]float64{r.Norm(0, 1), r.Norm(0, 1), r.Norm(0, 1)},
			[]float64{0.1, 0.2, 0.3})
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || got.Count() != s.Count() || got.Dims() != 3 {
		t.Fatalf("round trip changed shape: %d/%d", got.Len(), got.Count())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Feature(i), got.Feature(i)
		for j := 0; j < 3; j++ {
			if a.CF1[j] != b.CF1[j] || a.CF2[j] != b.CF2[j] || a.EF2[j] != b.EF2[j] {
				t.Fatalf("cluster %d stats changed", i)
			}
		}
		// Centroids rebuilt correctly.
		if got.Centroid(i)[0] != s.Centroid(i)[0] {
			t.Fatalf("centroid %d changed", i)
		}
	}
	// Loaded summarizer keeps accepting points.
	got.Add([]float64{0, 0, 0}, nil)
	if got.Count() != s.Count()+1 {
		t.Fatal("loaded summarizer cannot accept points")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gob"))); !errors.Is(err, udmerr.ErrBadData) {
		t.Fatalf("garbage: got %v, want ErrBadData", err)
	}
}

// TestLoadEnforcesDefinition1 breaks one invariant per case in an
// otherwise valid snapshot: Load refuses each with ErrBadData, and
// accepts the unbroken snapshot.
func TestLoadEnforcesDefinition1(t *testing.T) {
	valid := func() snapshot {
		s := NewSummarizer(3, 2)
		for i := 0; i < 9; i++ {
			s.Add([]float64{float64(i), float64(2 * i)}, []float64{0.5, 0.25})
		}
		snap := snapshot{Q: s.q, D: s.d, Clock: s.clock}
		for _, f := range s.feats {
			snap.Feats = append(snap.Feats, *f.Clone())
		}
		return snap
	}
	for _, tc := range []struct {
		name   string
		mutate func(*snapshot)
	}{
		{"none", func(*snapshot) {}},
		{"q < 1", func(s *snapshot) { s.Q = 0 }},
		{"d < 1", func(s *snapshot) { s.D = 0 }},
		{"more features than q", func(s *snapshot) { s.Q = 2 }},
		{"short CF2", func(s *snapshot) { s.Feats[1].CF2 = s.Feats[1].CF2[:1] }},
		{"n = 0", func(s *snapshot) { s.Feats[0].N = 0 }},
		{"negative n", func(s *snapshot) { s.Feats[0].N = -3 }},
		{"NaN CF1", func(s *snapshot) { s.Feats[2].CF1[1] = math.NaN() }},
		{"infinite CF2", func(s *snapshot) { s.Feats[0].CF2[0] = math.Inf(1) }},
		{"infinite EF2", func(s *snapshot) { s.Feats[1].EF2[1] = math.Inf(1) }},
		{"negative CF2", func(s *snapshot) { s.Feats[0].CF2[1] = -1 }},
		{"negative EF2", func(s *snapshot) { s.Feats[2].EF2[0] = -0.5 }},
	} {
		snap := valid()
		tc.mutate(&snap)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if tc.name == "none" {
			if err != nil {
				t.Fatalf("valid snapshot refused: %v", err)
			}
			continue
		}
		if !errors.Is(err, udmerr.ErrBadData) {
			t.Errorf("%s: got %v, want ErrBadData", tc.name, err)
		}
	}
}

func TestSummarizerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"q<1":          func() { NewSummarizer(0, 1) },
		"d<1":          func() { NewSummarizer(1, 0) },
		"dim mismatch": func() { NewSummarizer(1, 2).Add([]float64{1}, nil) },
		"empty nearest": func() {
			NewSummarizer(1, 1).Nearest([]float64{1}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
