package kde

import (
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

// This file is the property/metamorphic layer over the estimators of
// Eq. 1–4 and 9–10: relations that must hold for EVERY dataset, checked
// over a table of seeded random datasets rather than hand-picked
// examples. The three core properties:
//
//  1. Zero uncertainty is a no-op: with all-zero error bars the
//     error-adjusted estimator IS the plain Silverman KDE, bit for bit
//     (ψ=0 routes through the identical kernel.Gaussian code path).
//  2. A density is a density: never negative, never NaN, finite
//     wherever the query is finite.
//  3. More uncertainty never sharpens: growing one point's ψ_j widens
//     that point's kernel, so the density at the point's own mode
//     cannot increase (bandwidths depend only on values, never errors,
//     so nothing else moves).
//
// plus metamorphic translation checks for the two error-adjusted kernel
// forms themselves.

// propertyCases is the shared table of seeded datasets the properties
// quantify over: varying size, error magnitude and seed.
type propertyCase struct {
	name string
	n    int
	e    float64
	seed int64
}

var propertyCases = []propertyCase{
	{"small-lowerr", 40, 0.1, 101},
	{"small-higherr", 40, 1.5, 102},
	{"mid-moderr", 150, 0.5, 103},
	{"large-mixed", 400, 0.8, 104},
}

// queries draws a deterministic batch of query points spanning the
// bulk and the tails of the gauss2 mixture.
func queries(seed int64, k int) [][]float64 {
	r := rng.New(seed)
	qs := make([][]float64, k)
	for i := range qs {
		qs[i] = []float64{r.Norm(0, 4), r.Norm(0, 3)}
	}
	return qs
}

// TestZeroErrorReducesToPlainKDE: an error-adjusted estimator over data
// whose error bars are all zero must reproduce the plain (no-
// adjustment) Silverman KDE bit for bit — for both kernel forms, over
// full and subspace queries. This is the identity the serving layer's
// bit-identity guarantees stand on.
func TestZeroErrorReducesToPlainKDE(t *testing.T) {
	for _, tc := range propertyCases {
		t.Run(tc.name, func(t *testing.T) {
			d := gauss2(tc.n, tc.e, tc.seed)
			// Same values, explicit zero error bars.
			zero := d.Clone()
			for i := range zero.Err {
				for j := range zero.Err[i] {
					zero.Err[i][j] = 0
				}
			}
			plain, err := NewPoint(d.WithZeroError(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []Options{
				{ErrorAdjust: true},
				{ErrorAdjust: true, PaperKernel: true},
			} {
				adj, err := NewPoint(zero, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries(tc.seed+1000, 25) {
					for _, dims := range [][]int{nil, {0}, {1}, {1, 0}} {
						var fp, fa float64
						if dims == nil {
							fp, fa = plain.Density(q), adj.Density(q)
						} else {
							fp, fa = plain.DensitySub(q, dims), adj.DensitySub(q, dims)
						}
						if fp != fa {
							t.Fatalf("paper=%v dims=%v q=%v: zero-error adjusted density %v != plain %v (must be bit-identical)",
								opt.PaperKernel, dims, q, fa, fp)
						}
					}
				}
			}
		})
	}
}

// TestDensityNonNegativeFinite: every estimator variant must return a
// non-negative, finite, non-NaN density at every finite query.
func TestDensityNonNegativeFinite(t *testing.T) {
	for _, tc := range propertyCases {
		t.Run(tc.name, func(t *testing.T) {
			d := gauss2(tc.n, tc.e, tc.seed)
			ests := map[string]Estimator{}
			for _, opt := range []Options{
				{},
				{ErrorAdjust: true},
				{ErrorAdjust: true, PaperKernel: true},
			} {
				pk, err := NewPoint(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				ests["point"+optTag(opt)] = pk
				sum := microcluster.NewSummarizer(10, d.Dims())
				for i := range d.X {
					sum.Add(d.X[i], d.ErrRow(i))
				}
				ck, err := NewCluster(sum, opt)
				if err != nil {
					t.Fatal(err)
				}
				ests["cluster"+optTag(opt)] = ck
			}
			for name, est := range ests {
				for _, q := range queries(tc.seed+2000, 25) {
					for _, dims := range [][]int{nil, {0}, {1}} {
						var f float64
						if dims == nil {
							f = est.Density(q)
						} else {
							f = est.DensitySub(q, dims)
						}
						if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
							t.Fatalf("%s dims=%v q=%v: density %v not a finite non-negative number", name, dims, q, f)
						}
					}
				}
				// Uncertain queries obey the same closure.
				if pq, ok := est.(*PointKDE); ok {
					for _, q := range queries(tc.seed+3000, 10) {
						f := pq.DensityQ(q, []float64{tc.e, 2 * tc.e}, nil)
						if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
							t.Fatalf("%s DensityQ(%v) = %v not a finite non-negative number", name, q, f)
						}
					}
				}
			}
		})
	}
}

func optTag(o Options) string {
	switch {
	case o.PaperKernel:
		return "/paper"
	case o.ErrorAdjust:
		return "/adjusted"
	}
	return "/plain"
}

// TestGrowingErrorNeverSharpens: widening one point's per-dimension
// error ψ_j can only flatten that point's kernel, so the density
// evaluated at the point itself (its contribution's mode) must be
// non-increasing along a growing ψ ladder. Silverman bandwidths depend
// only on the values, never the error matrix, so the other N−1
// contributions are unchanged — the monotonicity isolates Eq. 3–4's
// widening. Holds for both the normalized and the paper kernel form.
func TestGrowingErrorNeverSharpens(t *testing.T) {
	psiLadder := []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	for _, tc := range propertyCases {
		for _, paper := range []bool{false, true} {
			name := tc.name + map[bool]string{false: "/normalized", true: "/paper"}[paper]
			t.Run(name, func(t *testing.T) {
				d := gauss2(tc.n, tc.e, tc.seed)
				opt := Options{ErrorAdjust: true, PaperKernel: paper}
				// Probe a handful of points; vary each probe's error in
				// one dimension at a time.
				for probe := 0; probe < d.Len(); probe += d.Len() / 5 {
					for j := 0; j < d.Dims(); j++ {
						prev := math.Inf(1)
						for _, psi := range psiLadder {
							mut := d.Clone()
							mut.Err[probe][j] = psi
							k, err := NewPoint(mut, opt)
							if err != nil {
								t.Fatal(err)
							}
							f := k.Density(d.X[probe])
							if f > prev {
								t.Fatalf("probe %d dim %d: density at own mode rose from %v to %v when ψ grew to %v",
									probe, j, prev, f, psi)
							}
							prev = f
						}
					}
				}
			})
		}
	}
}

// TestQueryErrorNeverSharpensAtMode: the uncertain-query density
// E[f(X)], X ~ N(x, diag(qerr²)) is an average of f around x. On a
// single-point dataset x = X_0 is the global mode of f, so growing the
// query error can only average in smaller values. Checked for both
// estimators (the cluster form via a one-cluster summarizer).
func TestQueryErrorNeverSharpensAtMode(t *testing.T) {
	d := dataset.New("x", "y")
	if err := d.Append([]float64{1.5, -0.5}, []float64{0.3, 0.3}, dataset.Unlabeled); err != nil {
		t.Fatal(err)
	}
	// A one-point dataset has zero spread; Silverman collapses, so pin
	// the bandwidths explicitly.
	opt := Options{ErrorAdjust: true, Bandwidths: []float64{0.8, 1.1}}
	pk, err := NewPoint(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	sum := microcluster.NewSummarizer(1, 2)
	sum.Add(d.X[0], d.Err[0])
	ck, err := NewCluster(sum, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(q, e []float64) float64{
		"point":   func(q, e []float64) float64 { return pk.DensityQ(q, e, nil) },
		"cluster": func(q, e []float64) float64 { return ck.DensityQ(q, e, nil) },
	} {
		prev := math.Inf(1)
		for _, qe := range []float64{0, 0.5, 1, 2, 4} {
			var v float64
			if qe == 0 {
				v = f(d.X[0], nil)
			} else {
				v = f(d.X[0], []float64{qe, qe})
			}
			if v > prev {
				t.Fatalf("%s: density at the mode rose from %v to %v when query error grew to %v", name, prev, v, qe)
			}
			prev = v
		}
	}
}

// TestErrAdjustedKernelTranslation: both printed kernel forms (Eq. 3
// normalized and as-published) depend on x and c only through x−c, so
// translating both arguments moves the kernel rigidly. Checked to a
// tight relative tolerance (float translation is not exact in the
// arguments' bits).
func TestErrAdjustedKernelTranslation(t *testing.T) {
	r := rng.New(42)
	forms := map[string]func(x, c, h, psi float64) float64{
		"normalized": kernel.ErrAdjustedNormalized,
		"paper":      kernel.ErrAdjustedPaper,
	}
	for name, K := range forms {
		for trial := 0; trial < 200; trial++ {
			x, c := r.Norm(0, 2), r.Norm(0, 2)
			h, psi := 0.1+r.Float64(), r.Float64()*2
			shift := r.Uniform(-50, 50)
			a, b := K(x, c, h, psi), K(x+shift, c+shift, h, psi)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("%s kernel not translation invariant: K(%v,%v)=%v vs shifted %v", name, x, c, a, b)
			}
		}
	}
}

// TestBandwidthsIgnoreErrors: the Silverman rule reads only the values,
// so replacing the error matrix must leave every per-dimension
// bandwidth bit-identical — the lemma the monotonicity test above
// leans on.
func TestBandwidthsIgnoreErrors(t *testing.T) {
	d := gauss2(120, 0.4, 105)
	noisy := d.Clone()
	for i := range noisy.Err {
		for j := range noisy.Err[i] {
			noisy.Err[i][j] *= 17.5
		}
	}
	a, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPoint(noisy, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d.Dims(); j++ {
		if a.BandwidthFor(j) != b.BandwidthFor(j) {
			t.Fatalf("dim %d: bandwidth moved with the error matrix: %v vs %v", j, a.BandwidthFor(j), b.BandwidthFor(j))
		}
	}
}
