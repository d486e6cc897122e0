package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"udm/internal/datagen"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
	"udm/internal/uncertain"
)

// referenceDecide is the Figure-3 roll-up as it was before factor tables:
// every candidate scored with the estimators' scalar DensitySub, and
// every (parent, single) pair materialized before deduplication. Decide
// must reproduce it exactly.
func referenceDecide(c *Classifier, x []float64) (*Decision, error) {
	if len(x) != c.dims {
		return nil, fmt.Errorf("core: test point has %d dims, classifier has %d: %w", len(x), c.dims, udmerr.ErrDimensionMismatch)
	}
	dec := &Decision{}
	var level, all []SubspaceScore
	var singles []int
	for j := 0; j < c.dims; j++ {
		dec.Candidates++
		if best, acc, ok := referenceAccuracyAll(c, x, []int{j}); ok && acc > c.opt.Threshold {
			s := SubspaceScore{Dims: []int{j}, Class: best, Accuracy: acc}
			level = append(level, s)
			all = append(all, s)
			singles = append(singles, j)
		}
	}
	if len(level) > 0 {
		dec.Levels = 1
	}
	size := 1
	for len(level) > 0 && (c.opt.MaxSubspaceSize < 0 || size < c.opt.MaxSubspaceSize) {
		seen := map[string]bool{}
		var next []SubspaceScore
		for _, s := range level {
			for _, j := range singles {
				if containsDim(s.Dims, j) {
					continue
				}
				nd := insertDim(make([]int, 0, len(s.Dims)+1), s.Dims, j)
				key := referenceDimsKey(nd)
				if seen[key] {
					continue
				}
				seen[key] = true
				dec.Candidates++
				if best, acc, ok := referenceAccuracyAll(c, x, nd); ok && acc > c.opt.Threshold {
					sc := SubspaceScore{Dims: nd, Class: best, Accuracy: acc}
					next = append(next, sc)
					all = append(all, sc)
				}
			}
		}
		level = next
		size++
		if len(level) > 0 {
			dec.Levels = size
		}
	}
	if len(all) == 0 {
		dec.Fallback = true
		if best, _, ok := referenceAccuracyAll(c, x, allDims(c.dims)); ok {
			dec.Label = best
		} else {
			dec.Label = argmaxInt(c.classCount)
		}
		return dec, nil
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Accuracy > all[j].Accuracy })
	used := make([]bool, c.dims)
	votes := make([]int, len(c.class))
	weight := make([]float64, len(c.class))
	for _, s := range all {
		if overlaps(s.Dims, used) {
			continue
		}
		for _, j := range s.Dims {
			used[j] = true
		}
		dec.Chosen = append(dec.Chosen, s)
		votes[s.Class]++
		weight[s.Class] += s.Accuracy
		if c.opt.MaxSubspaces > 0 && len(dec.Chosen) >= c.opt.MaxSubspaces {
			break
		}
	}
	best := 0
	for l := 1; l < len(votes); l++ {
		if votes[l] > votes[best] || (votes[l] == votes[best] && weight[l] > weight[best]) {
			best = l
		}
	}
	dec.Label = best
	return dec, nil
}

func referenceAccuracyAll(c *Classifier, x []float64, dims []int) (best int, acc float64, ok bool) {
	gd := c.global.DensitySub(x, dims)
	if gd <= densityFloor {
		return 0, 0, false
	}
	denom := c.total * gd
	for l := range c.class {
		a := float64(c.classCount[l]) * c.class[l].DensitySub(x, dims) / denom
		if a > acc {
			best, acc = l, a
		}
	}
	return best, acc, true
}

func referenceDimsKey(dims []int) string {
	b := make([]byte, 0, 4*len(dims))
	for _, d := range dims {
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ',')
	}
	return string(b)
}

// rollupCase is one trained classifier plus held-out test points.
type rollupCase struct {
	name   string
	clf    *Classifier
	points [][]float64
}

// rollupProfile sizes one profile's roll-up cases. base applies to every
// case. unlimited adds the literal Fig. 3 loop (MaxSubspaceSize −1) at
// the default threshold; it suits low-dimensional profiles only, because
// on 34 dimensions accuracy keeps rising with |S| and that loop walks
// most of the power set.
type rollupProfile struct {
	name                       string
	spec                       *datagen.Spec
	rows, q, exactRows, points int
	base                       ClassifierOptions
	unlimited                  bool
}

// rollupCases trains every constructor on a perturbed profile (f = 1)
// under the base options, a voter cap, estimator options whose batch
// paths prune and use the fast exponential (which DensitySub, and so the
// roll-up, ignores), the unlimited loop at a threshold few single
// dimensions clear (so it stays small on 34 dimensions, and many points
// take the full-dimensional fallback), and, when the profile asks, the
// unlimited loop at the default threshold. The test points are held-out
// draws plus one point far outside the data, where every density
// underflows.
func rollupCases(t testing.TB, p rollupProfile) []rollupCase {
	t.Helper()
	r := rng.New(41)
	clean, err := p.spec.Generate(p.rows, r.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	train, err := uncertain.Perturb(clean, 1, r.Split("noise"))
	if err != nil {
		t.Fatal(err)
	}
	test, err := p.spec.Generate(p.points, r.Split("test"))
	if err != nil {
		t.Fatal(err)
	}
	far := make([]float64, test.Dims())
	for j := range far {
		far[j] = 1e9
	}
	points := append(test.X, far)
	tr, err := NewTransform(train, TransformOptions{MicroClusters: p.q, ErrorAdjust: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var classSums []*microcluster.Summarizer
	counts := make([]int, tr.NumClasses())
	for l := range counts {
		classSums = append(classSums, tr.Class(l))
		counts[l] = tr.ClassCount(l)
	}
	idx := make([]int, p.exactRows)
	for i := range idx {
		idx[i] = i
	}
	small := train.Subset(idx)
	capped := p.base
	capped.MaxSubspaces, capped.Threshold = 2, 0.55
	approx := p.base
	approx.KDE = kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 1e-2, Accuracy: kernel.Approx(1e-3)}}
	strict := p.base
	strict.MaxSubspaceSize, strict.Threshold = -1, 0.85
	type variant struct {
		name string
		opt  ClassifierOptions
	}
	variants := []variant{{"base", p.base}, {"cap2", capped}, {"prune-approx", approx}, {"unlimited-strict", strict}}
	if p.unlimited {
		unlimited := p.base
		unlimited.MaxSubspaceSize = -1
		variants = append(variants, variant{"unlimited", unlimited})
	}
	var cases []rollupCase
	for _, o := range variants {
		tc, err := NewClassifier(tr, o.opt)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewClassifierFromSummaries(tr.Global(), classSums, counts, o.opt)
		if err != nil {
			t.Fatal(err)
		}
		eopt := o.opt
		eopt.KDE.ErrorAdjust = true
		ec, err := NewExactClassifier(small, eopt)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			rollupCase{o.name + "/transform", tc, points},
			rollupCase{o.name + "/summaries", sc, points},
			rollupCase{o.name + "/exact", ec, points},
		)
	}
	return cases
}

// assertSameDecision requires got to be reflect.DeepEqual to want, and
// additionally compares every accuracy under math.Float64bits.
func assertSameDecision(t *testing.T, name string, i int, got, want *Decision) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s point %d:\n got %+v\nwant %+v", name, i, got, want)
	}
	for k := range want.Chosen {
		if g, w := got.Chosen[k].Accuracy, want.Chosen[k].Accuracy; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s point %d subspace %d: accuracy %x, reference %x", name, i, k, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestDecideMatchesReferenceRollup: the table-driven roll-up makes the
// same decisions as the DensitySub reference, field for field and bit
// for bit, on the adult (6-D) and ionosphere (34-D) profiles; each
// chosen subspace's accuracy equals Accuracy's; and PredictBatchContext
// returns the reference decisions at every worker count (run under
// -race, since the workers share the classifier's table pool).
func TestDecideMatchesReferenceRollup(t *testing.T) {
	for _, p := range []rollupProfile{
		{name: "adult", spec: datagen.Adult(), rows: 1200, q: 60, exactRows: 300, points: 40, unlimited: true},
		// Size-2 subspaces keep the 34-D reference roll-up affordable
		// under -race: 561 candidates per point instead of ~6,000.
		{name: "ionosphere", spec: datagen.Ionosphere(), rows: 400, q: 16, exactRows: 100, points: 8,
			base: ClassifierOptions{MaxSubspaceSize: 2}},
	} {
		for _, tc := range rollupCases(t, p) {
			name := p.name + "/" + tc.name
			want := make([]*Decision, len(tc.points))
			fallbacks, chosen := 0, 0
			for i, x := range tc.points {
				var err error
				if want[i], err = referenceDecide(tc.clf, x); err != nil {
					t.Fatal(err)
				}
				got, err := tc.clf.Decide(x)
				if err != nil {
					t.Fatal(err)
				}
				assertSameDecision(t, name, i, got, want[i])
				for _, s := range got.Chosen {
					if a := tc.clf.Accuracy(x, s.Dims, s.Class); math.Float64bits(a) != math.Float64bits(s.Accuracy) {
						t.Fatalf("%s point %d dims %v: decision accuracy %v, Accuracy %v", name, i, s.Dims, s.Accuracy, a)
					}
				}
				if got.Fallback {
					fallbacks++
				}
				chosen += len(got.Chosen)
			}
			if fallbacks == 0 || chosen == 0 && !strings.HasPrefix(tc.name, "unlimited-strict/") {
				t.Fatalf("%s: %d fallbacks, %d chosen subspaces", name, fallbacks, chosen)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := tc.clf.PredictBatchContext(context.Background(), tc.points, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					assertSameDecision(t, fmt.Sprintf("%s workers=%d", name, workers), i, got[i], want[i])
				}
			}
		}
	}
}

// TestNonFiniteTestPointRejected: a NaN or ±Inf coordinate is bad data
// on every classification entry point, never a silent label or a NaN
// probability.
func TestNonFiniteTestPointRejected(t *testing.T) {
	c := trainBlobs(t, 200, 43, 10, true)
	ctx := context.Background()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, x := range [][]float64{{v, 0}, {0, v}} {
			for _, tc := range []struct {
				name string
				run  func() error
			}{
				{"Classify", func() error { _, err := c.Classify(x); return err }},
				{"ClassifyBatchContext", func() error {
					_, err := c.ClassifyBatchContext(ctx, [][]float64{{0, 0}, x}, 2)
					return err
				}},
				{"PredictBatchContext", func() error {
					_, err := c.PredictBatchContext(ctx, [][]float64{x, {0, 0}}, 2)
					return err
				}},
				{"Probabilities", func() error { _, err := c.Probabilities(x); return err }},
				{"FullSpace().Classify", func() error { _, err := c.FullSpace().Classify(x); return err }},
			} {
				if err := tc.run(); !errors.Is(err, udmerr.ErrBadData) {
					t.Errorf("%s(%v): err = %v, want ErrBadData", tc.name, x, err)
				}
			}
		}
	}
}

// BenchmarkDecide times one Figure-3 decision at the classify serving
// workload's model shape: the adult profile perturbed at f = 1, a
// q = 140 transform (global plus two classes), held-out clean points.
// "table" is Decide; "reference" is the DensitySub roll-up it replaced.
func BenchmarkDecide(b *testing.B) {
	r := rng.New(44)
	clean, err := datagen.Adult().Generate(8000, r.Split("train"))
	if err != nil {
		b.Fatal(err)
	}
	train, err := uncertain.Perturb(clean, 1, r.Split("noise"))
	if err != nil {
		b.Fatal(err)
	}
	test, err := datagen.Adult().Generate(64, r.Split("test"))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewTransform(train, TransformOptions{MicroClusters: 140, ErrorAdjust: true, Seed: 45})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewClassifier(tr, ClassifierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decide func(*Classifier, []float64) (*Decision, error)
	}{
		{"table", (*Classifier).Decide},
		{"reference", referenceDecide},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decide(c, test.X[i%len(test.X)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
