package kde

import (
	"math"

	"udm/internal/num"
)

// This file implements far-field truncation for the batch density
// paths: a depth-first walk of the k-d tree over the kernel centers
// that discards whole subtrees whose maximum possible contribution is
// provably below the caller's relative budget (Options.Eval.Prune).
// Wells & Ting (arXiv:1707.00783) show this style of spatial pruning
// recovers orders of magnitude on clustered data without giving up an
// error guarantee.
//
// Bound derivation. For a subtree holding mass m (point count, or
// weight sum for clusters), every per-dimension factor of every member
// kernel is at most
//
//	UB_j = 1/(√(2π)·σ_lo) · exp(−dmin_j² / (2·σ_hi²))
//
// where dmin_j is the distance from the query coordinate to the
// subtree's bounding interval on dimension j (0 inside), σ_lo is the
// smallest widened bandwidth any member can have (ψ at the subtree's
// per-dimension minimum) and σ_hi the largest. Both inequalities hold
// factor-wise: 1/σ ≤ 1/σ_lo and the exponential is monotone in both d
// and σ. The subtree's total contribution is therefore ≤ B = m·∏ UB_j.
//
// The walk keeps a running kept-sum S and prunes a subtree iff
//
//	B ≤ tol · (m/N) · S
//
// Summing over all pruned subtrees: Σ B_k ≤ tol·S_final·Σ(m_k/N) ≤
// tol·S_final, so the absolute truncation error is at most tol times
// the kept sum and the relative error of the returned density is at
// most tol (contributions are nonnegative, so S only grows and the
// bound at prune time only strengthens). Visiting the near child first
// grows S as fast as possible, which is what makes the test bite.
//
// tol = 0 never prunes — the engine does not even take this path then,
// so exact unpruned batches stay bit-identical to the scalar loop.

// pruneLeaf is the subtree size below which the walk stops testing the
// bound and just evaluates the contiguous preorder span: at that size
// the bound arithmetic costs as much as the evaluations it could save.
const pruneLeaf = 16

// pruneSafety inflates the bound by 1 part in 10⁹ before comparing, so
// last-ulp rounding differences between the bound's σ arithmetic and
// the per-entry widths can never flip a pruning decision past the
// guarantee. The slack is absorbed into tol's own budget (it is a
// million times smaller than any sane tol).
const pruneSafety = 1 + 1e-9

// walker carries one query's pruned traversal state.
type walker struct {
	e       *engine
	q       []float64
	qerr    []float64 // nil for a certain query
	dims    []int
	exp     func(float64) float64
	sum     float64
	skipped int64
	prod    [pruneLeaf]float64 // one evaluated span's products
}

// densityPruned evaluates the estimate at q over dims with far-field
// truncation at relative budget e.prune. qerr, when non-nil, is folded
// into every width exactly as in the flat DensityQ path.
func (e *engine) densityPruned(q, qerr []float64, dims []int) float64 {
	w := walker{e: e, q: q, dims: dims, qerr: qerr, exp: e.expFn(len(dims))}
	w.walk(e.tree.Root())
	kernelEvalsPruned.Add(w.skipped)
	return w.sum / e.total
}

// walk visits one subtree: prune it, evaluate it whole, or split.
func (w *walker) walk(ni int) {
	if ni < 0 {
		return
	}
	e, sub := w.e, w.e.sub
	m := float64(sub.Count[ni])
	if sub.WSum != nil {
		m = sub.WSum[ni]
	}
	b := m
	for _, j := range w.dims {
		b *= w.boundFactor(ni, j)
	}
	if b*pruneSafety <= e.prune*(m/e.total)*w.sum {
		w.skipped += int64(sub.Count[ni])
		return
	}
	lo := int(sub.Lo[ni])
	if int(sub.Count[ni]) <= pruneLeaf {
		w.evalSpan(lo, int(sub.Hi[ni]))
		return
	}
	// The node's own point sits first in its preorder span.
	w.evalSpan(lo, lo+1)
	_, axis, left, right := e.tree.Node(ni)
	near, far := left, right
	if w.q[axis] > e.perm.x[axis][lo] {
		near, far = right, left
	}
	w.walk(near)
	w.walk(far)
}

// boundFactor is UB_j for subtree ni: the largest value any member's
// dimension-j kernel factor can take at the query.
func (w *walker) boundFactor(ni, j int) float64 {
	e := w.e
	d := e.d
	lo, hi := e.sub.Min[ni*d+j], e.sub.Max[ni*d+j]
	qj := w.q[j]
	var dmin float64
	switch {
	case qj < lo:
		dmin = lo - qj
	case qj > hi:
		dmin = qj - hi
	}
	var psiLo, psiHi float64
	if e.sub.AuxMin != nil {
		psiLo, psiHi = e.sub.AuxMin[ni*d+j], e.sub.AuxMax[ni*d+j]
	}
	h := e.h[j]
	var q2 float64
	if w.qerr != nil {
		q2 = w.qerr[j] * w.qerr[j]
	}
	s2hi := h*h + psiHi*psiHi + q2
	var normHi float64
	if w.qerr == nil && (e.mode == modePaperMixed || e.mode == modePaperAll) {
		// Eq. 3's normalizer 1/(√(2π)(h+ψ)) is maximized at ψ_lo; the
		// DensityQ path always uses the normalized kernel, hence the
		// qerr guard.
		normHi = num.InvSqrt2Pi / (h + psiLo)
	} else {
		normHi = num.InvSqrt2Pi / math.Sqrt(h*h+psiLo*psiLo+q2)
	}
	return normHi * math.Exp(-dmin*dmin/(2*s2hi))
}

// evalSpan adds the exact contribution of preorder positions [lo, hi),
// at most pruneLeaf of them: the engine's terms over the permuted
// columns, added in preorder.
func (w *walker) evalSpan(lo, hi int) {
	prod := w.prod[:hi-lo]
	w.e.terms(&w.e.perm, lo, w.q, w.qerr, w.dims, w.exp, prod)
	for _, p := range prod {
		w.sum += p
	}
}
