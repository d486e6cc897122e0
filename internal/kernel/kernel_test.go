package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

// mass integrates fn over [-L, L] with the trapezoid rule.
func mass(fn func(x float64) float64, l float64, n int) float64 {
	h := 2 * l / float64(n)
	var s float64
	for i := 0; i <= n; i++ {
		x := -l + float64(i)*h
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		s += w * fn(x)
	}
	return s * h
}

func TestKernelsHaveUnitMass(t *testing.T) {
	for _, width := range []float64{0.5, 1, 2.5} {
		got := mass(func(x float64) float64 { return Gaussian(x, 0.3, width) }, 40, 40000)
		if math.Abs(got-1) > 1e-4 {
			t.Errorf("width %v: mass = %v", width, got)
		}
	}
}

func TestKernelsPeakAtCenter(t *testing.T) {
	center := Gaussian(1.5, 1.5, 1)
	for _, dx := range []float64{0.1, 0.5, 0.9, 2} {
		if Gaussian(1.5+dx, 1.5, 1) > center {
			t.Errorf("off-center value exceeds peak at dx=%v", dx)
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	f := func(dx, width float64) bool {
		dx = math.Mod(math.Abs(dx), 10)
		width = 0.1 + math.Mod(math.Abs(width), 5)
		if math.IsNaN(dx) || math.IsNaN(width) {
			return true
		}
		return Gaussian(dx, 0, width) == Gaussian(-dx, 0, width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalPanicsOnBadWidth(t *testing.T) {
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %v did not panic", w)
				}
			}()
			Gaussian(0, 0, w)
		}()
	}
}

func TestErrAdjustedReducesToGaussianAtZeroError(t *testing.T) {
	// Boundary case from the paper: ψ = 0 recovers the standard kernel.
	for _, x := range []float64{-2, 0, 0.7, 3} {
		std := Gaussian(x, 0.5, 1.3)
		if got := ErrAdjustedPaper(x, 0.5, 1.3, 0); math.Abs(got-std) > 1e-15 {
			t.Errorf("paper variant at ψ=0: %v vs %v", got, std)
		}
		if got := ErrAdjustedNormalized(x, 0.5, 1.3, 0); math.Abs(got-std) > 1e-15 {
			t.Errorf("normalized variant at ψ=0: %v vs %v", got, std)
		}
	}
}

func TestErrAdjustedWidensWithError(t *testing.T) {
	// Larger ψ ⇒ lower peak (contribution smeared out), for both variants.
	peak := func(psi float64, f func(x, c, h, psi float64) float64) float64 {
		return f(0, 0, 1, psi)
	}
	for _, f := range []func(x, c, h, psi float64) float64{ErrAdjustedPaper, ErrAdjustedNormalized} {
		if !(peak(0, f) > peak(1, f) && peak(1, f) > peak(3, f)) {
			t.Error("peak does not decrease with ψ")
		}
	}
}

func TestErrAdjustedNormalizedUnitMass(t *testing.T) {
	for _, psi := range []float64{0, 0.5, 2, 10} {
		got := mass(func(x float64) float64 {
			return ErrAdjustedNormalized(x, 0, 0.8, psi)
		}, 100, 100000)
		if math.Abs(got-1) > 1e-4 {
			t.Errorf("ψ=%v: normalized mass = %v", psi, got)
		}
	}
}

func TestErrAdjustedPaperMass(t *testing.T) {
	// The paper's Eq. 3 has mass √(h²+ψ²)/(h+ψ); check numerically.
	for _, psi := range []float64{0, 0.5, 2} {
		h := 0.8
		got := mass(func(x float64) float64 {
			return ErrAdjustedPaper(x, 0, h, psi)
		}, 100, 100000)
		want := PaperMass(h, psi)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("ψ=%v: paper mass = %v, want %v", psi, got, want)
		}
	}
}

func TestErrAdjustedLimitingVariance(t *testing.T) {
	// As h→0 the kernel approaches a Gaussian with std exactly ψ
	// (the paper's limiting-case argument). Check the normalized variant's
	// second moment numerically at tiny h.
	const psi = 1.7
	second := mass(func(x float64) float64 {
		return x * x * ErrAdjustedNormalized(x, 0, 1e-9, psi)
	}, 60, 120000)
	if math.Abs(second-psi*psi) > 1e-3 {
		t.Fatalf("limiting variance = %v, want %v", second, psi*psi)
	}
}

func TestErrAdjustedPanics(t *testing.T) {
	cases := []struct{ h, psi float64 }{{0, 1}, {-1, 1}, {1, -0.5}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("h=%v ψ=%v did not panic", c.h, c.psi)
				}
			}()
			ErrAdjustedPaper(0, 0, c.h, c.psi)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("normalized h=%v ψ=%v did not panic", c.h, c.psi)
				}
			}()
			ErrAdjustedNormalized(0, 0, c.h, c.psi)
		}()
	}
}
