package microcluster

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"udm/internal/udmerr"
)

// FuzzDist2 checks the Eq. 5 metric's invariants on arbitrary inputs:
// non-negative, never above the unadjusted distance, zero when every
// displacement is within the error.
func FuzzDist2(f *testing.F) {
	f.Add(1.0, 2.0, 0.5, 3.0, 4.0, 0.0)
	f.Add(0.0, 0.0, 10.0, 5.0, 5.0, 10.0)
	f.Add(-1e9, 1e9, 1e10, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, y0, y1, e0, c0, c1, e1 float64) {
		for _, v := range []float64{y0, y1, e0, c0, c1, e1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		y := []float64{y0, y1}
		c := []float64{c0, c1}
		e := []float64{math.Abs(e0), math.Abs(e1)}
		d := Dist2(y, c, e)
		if math.IsNaN(d) || d < 0 {
			t.Fatalf("Dist2 = %v", d)
		}
		plain := Dist2(y, c, nil)
		if d > plain && !math.IsInf(plain, 1) {
			t.Fatalf("adjusted %v exceeds unadjusted %v", d, plain)
		}
		if math.Abs(y0-c0) <= e[0] && math.Abs(y1-c1) <= e[1] && d != 0 {
			t.Fatalf("within-error distance = %v, want 0", d)
		}
	})
}

// FuzzFeatureMerge checks Definition 1's additivity under arbitrary
// splits of a point set: merging two partial summaries is bit-exact
// commutative (the statistics are element-wise float sums), the n and
// timestamp bookkeeping is exact, the merged summary agrees with the
// summary built by adding every point sequentially (up to reassociation
// of the float sums), Lemma 1's Δ² stays well defined, and merging an
// empty feature is a bit-exact no-op.
func FuzzFeatureMerge(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.25, -3.0, 1.0, 4.0, 0.0, 2, int64(100))
	f.Add(-1e6, 10.0, 1e6, 10.0, 0.0, 0.0, 7.5, 2.5, 0, int64(-5))
	f.Add(0.125, 0.0, 0.25, 0.5, 0.375, 0.25, 0.5, 0.125, 4, int64(0))
	// Multi-way ordered-merge seeds: every split point of the four-point
	// set, with magnitudes that expose reassociation (the distributed
	// fan-out merges partial summaries this way, shard by shard in index
	// order).
	f.Add(1e12, 1.0, -1e12, 1.0, 1.0, 0.5, -1.0, 0.5, 1, int64(1))
	f.Add(3.5, 0.25, -7.25, 0.5, 11.125, 0.125, 0.0625, 0.0, 2, int64(42))
	f.Add(1e-9, 1e-9, 1e9, 1e-3, -1e-9, 1e-9, -1e9, 1e-3, 3, int64(7))
	f.Fuzz(func(t *testing.T, x0, e0, x1, e1, x2, e2, x3, e3 float64, split int, ts0 int64) {
		vals := []float64{x0, x1, x2, x3}
		errs := []float64{e0, e1, e2, e3}
		for i := range vals {
			if math.IsNaN(vals[i]) || math.Abs(vals[i]) > 1e12 ||
				math.IsNaN(errs[i]) || math.Abs(errs[i]) > 1e12 {
				return
			}
			errs[i] = math.Abs(errs[i])
		}
		if ts0 > 1<<60 || ts0 < -(1<<60) {
			return
		}
		k := ((split % 5) + 5) % 5 // a gets vals[:k], b the rest
		a, b, all := NewFeature(1), NewFeature(1), NewFeature(1)
		for i := range vals {
			ft := a
			if i >= k {
				ft = b
			}
			ft.Add([]float64{vals[i]}, []float64{errs[i]}, ts0+int64(i))
			all.Add([]float64{vals[i]}, []float64{errs[i]}, ts0+int64(i))
		}
		ab, ba := a.Clone(), b.Clone()
		ab.Merge(b)
		ba.Merge(a)
		// Commutative to the bit: each statistic is a float add.
		if ab.CF1[0] != ba.CF1[0] || ab.CF2[0] != ba.CF2[0] || ab.EF2[0] != ba.EF2[0] {
			t.Fatalf("merge not commutative: %+v vs %+v", ab, ba)
		}
		if ab.N != ba.N || ab.FirstT != ba.FirstT || ab.LastT != ba.LastT {
			t.Fatalf("merge bookkeeping not commutative: %+v vs %+v", ab, ba)
		}
		// Bookkeeping is exact: n adds, timestamps span the union.
		if ab.N != 4 || ab.FirstT != ts0 || ab.LastT != ts0+3 {
			t.Fatalf("merged bookkeeping n=%d first=%d last=%d, want 4, %d, %d",
				ab.N, ab.FirstT, ab.LastT, ts0, ts0+3)
		}
		// Definition 1 additivity: merged statistics equal the one-pass
		// statistics up to reassociation slack, which scales with the
		// magnitude of the TERMS, not the (possibly cancelled) result.
		var mCF1, mCF2, mEF2 float64
		for i := range vals {
			mCF1 += math.Abs(vals[i])
			mCF2 += vals[i] * vals[i]
			mEF2 += errs[i] * errs[i]
		}
		for _, s := range []struct {
			name        string
			merged, seq float64
			termMag     float64
		}{
			{"CF1", ab.CF1[0], all.CF1[0], mCF1},
			{"CF2", ab.CF2[0], all.CF2[0], mCF2},
			{"EF2", ab.EF2[0], all.EF2[0], mEF2},
		} {
			if math.Abs(s.merged-s.seq) > 1e-9*(1+s.termMag) {
				t.Fatalf("%s: merged %v != sequential %v", s.name, s.merged, s.seq)
			}
		}
		if d2 := ab.Delta2(0); d2 < 0 || math.IsNaN(d2) {
			t.Fatalf("merged Delta2 = %v", d2)
		}
		// Multi-way ordered merge: folding the four singleton features
		// left-to-right runs the same float-add sequence as the one-pass
		// summary, so the two must agree to the bit — the property the
		// distributed fan-out relies on when it merges per-shard partial
		// summaries in fixed shard-index order.
		multi := NewFeature(1)
		for i := range vals {
			one := NewFeature(1)
			one.Add([]float64{vals[i]}, []float64{errs[i]}, ts0+int64(i))
			multi.Merge(one)
		}
		if multi.CF1[0] != all.CF1[0] || multi.CF2[0] != all.CF2[0] || multi.EF2[0] != all.EF2[0] ||
			multi.N != all.N || multi.FirstT != all.FirstT || multi.LastT != all.LastT {
			t.Fatalf("ordered multi-way merge %+v != one-pass %+v", multi, all)
		}
		// Merging an empty feature is a bit-exact no-op.
		solo := all.Clone()
		solo.Merge(NewFeature(1))
		if solo.CF1[0] != all.CF1[0] || solo.CF2[0] != all.CF2[0] || solo.EF2[0] != all.EF2[0] ||
			solo.N != all.N || solo.FirstT != all.FirstT || solo.LastT != all.LastT {
			t.Fatalf("merging an empty feature changed the summary: %+v vs %+v", solo, all)
		}
	})
}

// FuzzFeatureAdd checks that the additive statistics stay consistent
// under arbitrary finite inputs: Lemma 1's Δ² is non-negative and the
// centroid stays within the value envelope.
func FuzzFeatureAdd(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.25, 3.0, 0.0)
	f.Add(-1e6, 10.0, 1e6, 10.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, x1, e1, x2, e2, x3, e3 float64) {
		vals := []float64{x1, x2, x3}
		errs := []float64{e1, e2, e3}
		lo, hi := math.Inf(1), math.Inf(-1)
		ft := NewFeature(1)
		for i := range vals {
			if math.IsNaN(vals[i]) || math.Abs(vals[i]) > 1e12 ||
				math.IsNaN(errs[i]) || math.IsInf(errs[i], 0) {
				return
			}
			ft.Add([]float64{vals[i]}, []float64{math.Abs(errs[i])}, int64(i))
			lo = math.Min(lo, vals[i])
			hi = math.Max(hi, vals[i])
		}
		if d2 := ft.Delta2(0); d2 < 0 || math.IsNaN(d2) {
			t.Fatalf("Delta2 = %v", d2)
		}
		c := ft.Centroid(nil)[0]
		// Allow for floating-point slack proportional to magnitude.
		slack := 1e-9 * (1 + math.Abs(lo) + math.Abs(hi))
		if c < lo-slack || c > hi+slack {
			t.Fatalf("centroid %v outside [%v, %v]", c, lo, hi)
		}
	})
}

// savedArtifact is a real Save artifact: a q = 4, d = 2 summary of
// eight records with errors.
func savedArtifact(tb testing.TB) []byte {
	tb.Helper()
	s := NewSummarizer(4, 2)
	for i := 0; i < 8; i++ {
		s.Add([]float64{float64(i) * 0.5, float64(-i)}, []float64{0.1, 0.25})
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadSummarizer feeds arbitrary bytes to Load, the decoder behind
// summary artifacts, staged uploads, transform and engine checkpoints
// and the proxy's shard pulls. Load never panics, every error it
// returns wraps ErrBadData, and a summary it accepts saves and reloads
// to the same q, d, clock and features, bit for bit.
func FuzzLoadSummarizer(f *testing.F) {
	f.Add(savedArtifact(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Load(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, udmerr.ErrBadData) {
				t.Fatalf("Load error %v does not wrap ErrBadData", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save of an accepted summary: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading an accepted summary: %v", err)
		}
		if back.q != s.q || back.d != s.d || back.clock != s.clock || len(back.feats) != len(s.feats) {
			t.Fatalf("round trip: q %d→%d, d %d→%d, clock %d→%d, %d→%d features",
				s.q, back.q, s.d, back.d, s.clock, back.clock, len(s.feats), len(back.feats))
		}
		for i, f := range s.feats {
			g := back.feats[i]
			if f.N != g.N || f.FirstT != g.FirstT || f.LastT != g.LastT ||
				!sameBits(f.CF1, g.CF1) || !sameBits(f.CF2, g.CF2) || !sameBits(f.EF2, g.EF2) {
				t.Fatalf("round trip changed feature %d: %+v → %+v", i, f, g)
			}
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
