// Package kernel implements the one-dimensional Gaussian kernel and the
// bandwidth rules used by the density estimators, including the paper's
// error-adjusted Gaussian kernel Q'_h (Aggarwal, ICDE 2007, Eq. 3), whose
// bandwidth along a dimension is widened by the per-entry standard error
// ψ of the contributing point.
//
// Multi-dimensional kernels are products of one-dimensional kernels, each
// with its own smoothing parameter, exactly as in the paper; the product
// is taken by the kde package.
package kernel

import (
	"fmt"
	"math"

	"udm/internal/num"
)

// Gaussian returns the density at x of the Gaussian kernel centered at
// c with standard deviation width > 0: the paper's kernel (Eq. 2), and
// the only kernel shape the estimators use. The kde batch engine's
// mulGauss reproduces this exact op sequence, bit for bit.
func Gaussian(x, c, width float64) float64 {
	if width <= 0 {
		panic(fmt.Sprintf("kernel: non-positive width %v", width))
	}
	u := (x - c) / width
	return num.InvSqrt2Pi / width * math.Exp(-0.5*u*u)
}

// ErrAdjustedPaper evaluates the paper's error-based kernel Q'_h(x - c, ψ)
// exactly as written in Eq. (3):
//
//	Q'(x-c, ψ) = 1/(√(2π)·(h+ψ)) · exp(−(x−c)² / (2·(h²+ψ²)))
//
// Note the paper's normalizer uses (h+ψ) while the exponent uses the
// variance h²+ψ², so for ψ>0 the kernel mass is √(h²+ψ²)/(h+ψ) < 1; the
// function is faithful to the paper. It reduces to the standard Gaussian
// kernel when ψ = 0.
func ErrAdjustedPaper(x, c, h, psi float64) float64 {
	if h <= 0 {
		panic(fmt.Sprintf("kernel: non-positive bandwidth %v", h))
	}
	if psi < 0 {
		panic(fmt.Sprintf("kernel: negative error %v", psi))
	}
	v := h*h + psi*psi
	d := x - c
	return num.InvSqrt2Pi / (h + psi) * math.Exp(-d*d/(2*v))
}

// ErrAdjustedNormalized evaluates a properly normalized version of the
// error-based kernel: a Gaussian with standard deviation √(h²+ψ²). It has
// unit mass for every ψ and matches ErrAdjustedPaper when ψ = 0. The kde
// package uses it by default; the paper variant is available for strict
// reproduction.
func ErrAdjustedNormalized(x, c, h, psi float64) float64 {
	if h <= 0 {
		panic(fmt.Sprintf("kernel: non-positive bandwidth %v", h))
	}
	if psi < 0 {
		panic(fmt.Sprintf("kernel: negative error %v", psi))
	}
	sigma := math.Sqrt(h*h + psi*psi)
	return num.NormPDF(x, c, sigma)
}

// PaperMass returns the total mass of ErrAdjustedPaper for the given
// bandwidth and error: √(h²+ψ²)/(h+ψ). Exposed for diagnostics and tests.
func PaperMass(h, psi float64) float64 {
	return math.Sqrt(h*h+psi*psi) / (h + psi)
}
