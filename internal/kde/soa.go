package kde

import (
	"math"
	"sync"

	"udm/internal/kdtree"
	"udm/internal/kernel"
	"udm/internal/num"
)

// This file holds the structure-of-arrays evaluation engine behind the
// batch density APIs. The seed scalar path (DensitySub and friends)
// walks [][]float64 rows and re-derives every widened bandwidth on each
// evaluation; the engine stores the same data as per-dimension column
// slices with the widths, paper-kernel normalizers and squared errors
// precomputed, so the inner loop is a straight scan over contiguous
// float64 columns. In exact mode with pruning off the engine performs
// the seed's floating-point operations in the seed's order, so batch
// results stay bit-for-bit identical to the scalar reference — the
// regression tests in soa_test.go hold it to that.

// soaMode selects the per-entry kernel form the columns encode. It
// mirrors the branch structure of Options.evalKernel so each mode's
// loop reproduces the corresponding scalar op sequence exactly.
type soaMode int

const (
	// modePlain: every entry is a plain Gaussian with the dimension's
	// bandwidth (no error adjustment, or no recorded errors).
	modePlain soaMode = iota
	// modeWidth: per-entry precomputed width — h for ψ=0 entries,
	// √(h²+ψ²) otherwise (the normalized error-adjusted kernel).
	modeWidth
	// modePaperMixed: PointKDE under PaperKernel — ψ=0 entries use the
	// plain Gaussian (as evalKernel does), ψ>0 entries use Eq. 3.
	modePaperMixed
	// modePaperAll: ClusterKDE under PaperKernel — every pseudo-point
	// goes through Eq. 3, even when Δ=0.
	modePaperAll
)

// engine is the SoA twin of an estimator: immutable after construction
// and shared by all batch workers. Every PointKDE and ClusterKDE
// carries one.
type engine struct {
	mode  soaMode
	n     int     // entries (points or pseudo-points)
	d     int     // dimensionality
	total float64 // density divisor: N, or total cluster weight
	h     []float64
	acc   kernel.AccuracyMode
	prune float64

	// Column storage, cols[j][i]; width/psi/psiSq/norm/tv are present
	// per mode as documented on soaMode (psiSq feeds the DensityQ path).
	cols  [][]float64
	width [][]float64
	psi   [][]float64
	psiSq [][]float64
	norm  [][]float64
	tv    [][]float64
	wts   []float64 // starting product per entry; nil = 1

	// Far-field pruning structures (nil unless prune > 0): the k-d tree
	// over the centers, subtree aggregates, and every column permuted
	// into DFS preorder so any subtree is a contiguous span.
	tree   *kdtree.Tree
	sub    *kdtree.Subtrees
	pcols  [][]float64
	pwidth [][]float64
	ppsi   [][]float64
	ppsiSq [][]float64
	pnorm  [][]float64
	ptv    [][]float64
	pwts   []float64

	// pool recycles the per-query product buffer (len n). Held by
	// pointer so shallow copies of the engine (WithAccuracy) share it —
	// a sync.Pool must not be copied after first use.
	pool *sync.Pool
}

// newEngine builds the SoA engine for an estimator over positive,
// finite bandwidths h (explicitOrRule guarantees them). psis may be nil
// (no per-entry errors); a cluster estimator always passes its deltas
// and weights wts. An error is returned only when opt.Eval.Prune > 0
// and the spatial index cannot be built (e.g. non-finite centers).
func newEngine(opt Options, h []float64, total float64, cents, psis [][]float64, wts []float64, cluster bool) (*engine, error) {
	n, d := len(cents), len(h)
	e := &engine{
		n:     n,
		d:     d,
		total: total,
		h:     h,
		acc:   opt.Eval.Accuracy,
		prune: opt.Eval.Prune,
		cols:  toCols(cents, d),
		wts:   wts,
	}
	switch {
	case cluster && opt.PaperKernel:
		e.mode = modePaperAll
	case cluster:
		e.mode = modeWidth
	case psis == nil || !opt.ErrorAdjust:
		e.mode = modePlain
	case opt.PaperKernel:
		e.mode = modePaperMixed
	default:
		e.mode = modeWidth
	}
	if psis != nil {
		e.psi = toCols(psis, d)
		e.psiSq = mapCols(e.psi, func(_ int, p float64) float64 { return p * p })
	}
	switch e.mode {
	case modeWidth:
		// Per-entry width reproducing the scalar branch bit-for-bit:
		// PointKDE uses h itself for ψ=0 (evalKernel's kernel.Gaussian
		// branch), ClusterKDE always computes √(h²+Δ²) even for Δ=0.
		e.width = mapCols(e.psi, func(j int, p float64) float64 {
			if !cluster && p == 0 {
				return h[j]
			}
			return math.Sqrt(h[j]*h[j] + p*p)
		})
	case modePaperMixed, modePaperAll:
		// Eq. 3 split into a normalizer and a doubled variance so the
		// inner loop is one multiply and one exp per entry.
		e.norm = mapCols(e.psi, func(j int, p float64) float64 {
			return num.InvSqrt2Pi / (h[j] + p)
		})
		e.tv = mapCols(e.psi, func(j int, p float64) float64 {
			return 2 * (h[j]*h[j] + p*p)
		})
	}
	if opt.Eval.Prune > 0 {
		if err := e.buildIndex(cents, psis, wts); err != nil {
			return nil, err
		}
	}
	e.pool = &sync.Pool{New: func() any {
		s := make([]float64, n)
		return &s
	}}
	return e, nil
}

// withAccuracy returns a copy of e that evaluates under m, sharing
// every column, the spatial index and the scratch pool.
func (e *engine) withAccuracy(m kernel.AccuracyMode) *engine {
	c := *e
	c.acc = m
	return &c
}

// buildIndex constructs the k-d tree, subtree aggregates, and the
// preorder-permuted column twins used by the pruned traversal.
func (e *engine) buildIndex(cents, psis [][]float64, wts []float64) error {
	tree, err := kdtree.Build(cents)
	if err != nil {
		return err
	}
	sub, err := tree.Annotate(psis, wts)
	if err != nil {
		return err
	}
	e.tree, e.sub = tree, sub
	e.pcols = permuteCols(e.cols, sub.Perm)
	e.pwidth = permuteCols(e.width, sub.Perm)
	e.ppsi = permuteCols(e.psi, sub.Perm)
	e.ppsiSq = permuteCols(e.psiSq, sub.Perm)
	e.pnorm = permuteCols(e.norm, sub.Perm)
	e.ptv = permuteCols(e.tv, sub.Perm)
	if wts != nil {
		e.pwts = make([]float64, len(wts))
		for t, i := range sub.Perm {
			e.pwts[t] = wts[i]
		}
	}
	return nil
}

// toCols transposes row storage into d column slices backed by one
// allocation.
func toCols(rows [][]float64, d int) [][]float64 {
	n := len(rows)
	buf := make([]float64, n*d)
	out := make([][]float64, d)
	for j := range out {
		out[j] = buf[j*n : (j+1)*n : (j+1)*n]
	}
	for i, r := range rows {
		for j := 0; j < d; j++ {
			out[j][i] = r[j]
		}
	}
	return out
}

// mapCols derives one column set from another entry-wise; nil in, nil
// out.
func mapCols(src [][]float64, f func(j int, v float64) float64) [][]float64 {
	if src == nil {
		return nil
	}
	d := len(src)
	n := 0
	if d > 0 {
		n = len(src[0])
	}
	buf := make([]float64, n*d)
	out := make([][]float64, d)
	for j := range out {
		out[j] = buf[j*n : (j+1)*n : (j+1)*n]
		for i, v := range src[j] {
			out[j][i] = f(j, v)
		}
	}
	return out
}

// permuteCols reorders every column by the preorder permutation; nil
// in, nil out.
func permuteCols(src [][]float64, perm []int32) [][]float64 {
	if src == nil {
		return nil
	}
	d := len(src)
	n := len(perm)
	buf := make([]float64, n*d)
	out := make([][]float64, d)
	for j := range out {
		out[j] = buf[j*n : (j+1)*n : (j+1)*n]
		for t, i := range perm {
			out[j][t] = src[j][i]
		}
	}
	return out
}

// scratch borrows a len-n product buffer from the pool; release returns
// it. Steady-state batches therefore allocate nothing per query.
func (e *engine) scratch() []float64 { return *(e.pool.Get().(*[]float64)) }

func (e *engine) release(s []float64) { e.pool.Put(&s) }

// expFn resolves the exponential for a product over nd dimensions:
// math.Exp in exact mode, kernel.ExpFast when the accuracy budget
// covers the surrogate's compounded per-dimension error.
func (e *engine) expFn(nd int) func(float64) float64 {
	if e.acc.UsesFastExp(nd) {
		return kernel.ExpFast
	}
	return math.Exp
}

// density evaluates the estimate at q over dims using the scratch
// product buffer (len ≥ n). Pruning applies when configured; otherwise
// the flat column scan runs, bit-identical to the scalar path in exact
// mode.
func (e *engine) density(q []float64, dims []int, prod []float64) float64 {
	if e.prune > 0 {
		return e.densityPruned(q, dims, nil)
	}
	return e.densityFlat(q, dims, prod)
}

// densityQ is the uncertain-query variant: qerr's per-dimension errors
// fold into every kernel's variance, as in the scalar DensityQ.
func (e *engine) densityQ(q, qerr []float64, dims []int, prod []float64) float64 {
	if qerr == nil {
		return e.density(q, dims, prod)
	}
	if e.prune > 0 {
		return e.densityPruned(q, dims, qerr)
	}
	return e.densityQFlat(q, qerr, dims, prod)
}

// initProd seeds the product buffer: cluster weights or 1.
func (e *engine) initProd(prod []float64) {
	if e.wts != nil {
		copy(prod, e.wts)
		return
	}
	for i := range prod {
		prod[i] = 1
	}
}

// densityFlat is the unpruned dim-major scan: one pass per dimension
// over contiguous columns, then a sum in entry order. Dropping the
// scalar path's early break on a zero product cannot change bits —
// every Gaussian factor is finite, and 0 × finite = 0.
func (e *engine) densityFlat(q []float64, dims []int, prod []float64) float64 {
	prod = prod[:e.n]
	e.initProd(prod)
	exp := e.expFn(len(dims))
	for _, j := range dims {
		e.mulDim(prod, j, q[j], exp)
	}
	var sum float64
	for _, p := range prod {
		sum += p
	}
	return sum / e.total
}

// mulDim multiplies every entry's product by its kernel factor along
// dimension j at query coordinate v, in the form the engine's mode
// encodes, over the flat (unpermuted) columns.
func (e *engine) mulDim(prod []float64, j int, v float64, exp func(float64) float64) {
	switch e.mode {
	case modePlain:
		mulGauss(prod, e.cols[j], v, e.h[j], exp)
	case modeWidth:
		mulWidth(prod, e.cols[j], e.width[j], v, exp)
	case modePaperMixed:
		mulPaperMixed(prod, e.cols[j], e.psi[j], e.norm[j], e.tv[j], v, e.h[j], exp)
	case modePaperAll:
		mulPaperAll(prod, e.cols[j], e.norm[j], e.tv[j], v, exp)
	}
}

// factors writes every entry's kernel factor at q into f (f[j][i], one
// len-n column per dimension) by running mulDim over columns of ones
// with math.Exp. 1·k = k exactly, so each cell holds the very factor
// the scalar DensitySub multiplies. The pruned columns and the accuracy
// mode never apply here, because DensitySub ignores both.
func (e *engine) factors(q []float64, f [][]float64) {
	for j, col := range f {
		for i := range col {
			col[i] = 1
		}
		e.mulDim(col, j, q[j], math.Exp)
	}
}

// densityQFlat folds the query's own errors into every width. The op
// sequences replicate the scalar DensityQ exactly: ψ² terms add before
// the square root, and the widened σ re-derives from ψ via √(h²+ψ²).
func (e *engine) densityQFlat(q, qerr []float64, dims []int, prod []float64) float64 {
	prod = prod[:e.n]
	e.initProd(prod)
	exp := e.expFn(len(dims))
	for _, j := range dims {
		q2 := qerr[j] * qerr[j]
		if e.psiSq == nil {
			// No per-entry errors: the widened σ is constant along the
			// column, so hoist it (identical operations, done once).
			psi := math.Sqrt(q2)
			sigma := math.Sqrt(e.h[j]*e.h[j] + psi*psi)
			mulGauss(prod, e.cols[j], q[j], sigma, exp)
			continue
		}
		mulQ(prod, e.cols[j], e.psiSq[j], q[j], q2, e.h[j], exp)
	}
	var sum float64
	for _, p := range prod {
		sum += p
	}
	return sum / e.total
}

// mulGauss multiplies each product by the plain Gaussian factor — the
// exact op sequence of kernel.Gaussian and num.NormPDF.
func mulGauss(prod, col []float64, q, w float64, exp func(float64) float64) {
	for i, c := range col {
		z := (q - c) / w
		prod[i] *= num.InvSqrt2Pi / w * exp(-0.5*z*z)
	}
}

// mulWidth is mulGauss with a per-entry precomputed width.
func mulWidth(prod, col, width []float64, q float64, exp func(float64) float64) {
	for i, c := range col {
		w := width[i]
		z := (q - c) / w
		prod[i] *= num.InvSqrt2Pi / w * exp(-0.5*z*z)
	}
}

// mulPaperMixed mirrors evalKernel under PaperKernel: ψ=0 entries take
// the plain Gaussian branch, ψ>0 entries take Eq. 3 with precomputed
// normalizer and doubled variance.
func mulPaperMixed(prod, col, psi, norm, tv []float64, q, h float64, exp func(float64) float64) {
	for i, c := range col {
		if psi[i] == 0 {
			z := (q - c) / h
			prod[i] *= num.InvSqrt2Pi / h * exp(-0.5*z*z)
			continue
		}
		d := q - c
		prod[i] *= norm[i] * exp(-d*d/tv[i])
	}
}

// mulPaperAll is the unconditional Eq. 3 form used by ClusterKDE.
func mulPaperAll(prod, col, norm, tv []float64, q float64, exp func(float64) float64) {
	for i, c := range col {
		d := q - c
		prod[i] *= norm[i] * exp(-d*d/tv[i])
	}
}

// mulQ widens each entry by both its own ψ² and the query's: the
// scalar path computes ψ = √(qerr² + ψᵢ²) then σ = √(h² + ψ²), and so
// does this loop, term for term.
func mulQ(prod, col, psiSq []float64, q, q2, h float64, exp func(float64) float64) {
	for i, c := range col {
		psi := math.Sqrt(q2 + psiSq[i])
		sigma := math.Sqrt(h*h + psi*psi)
		z := (q - c) / sigma
		prod[i] *= num.InvSqrt2Pi / sigma * exp(-0.5*z*z)
	}
}
