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

	// flat holds the columns in entry order. perm holds the same
	// columns in the k-d tree's DFS preorder, so any subtree is a
	// contiguous span; it, the tree and the subtree aggregates are set
	// only when prune > 0.
	flat, perm colSet
	tree       *kdtree.Tree
	sub        *kdtree.Subtrees

	// pool recycles the per-query product buffer (len n). Held by
	// pointer so shallow copies of the engine (WithAccuracy) share it —
	// a sync.Pool must not be copied after first use.
	pool *sync.Pool
}

// colSet is the engine's column storage in one entry order, x[j][i]
// the centers. width, psi, psiSq, norm and tv are present per mode as
// documented on soaMode (psiSq feeds the uncertain-query form).
type colSet struct {
	x, width, psi, psiSq, norm, tv [][]float64
	wts                            []float64 // starting product per entry; nil = 1
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
		flat:  colSet{x: toCols(cents, d), wts: wts},
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
		e.flat.psi = toCols(psis, d)
		e.flat.psiSq = mapCols(e.flat.psi, func(_ int, p float64) float64 { return p * p })
	}
	switch e.mode {
	case modeWidth:
		// Per-entry width reproducing the scalar branch bit-for-bit:
		// PointKDE uses h itself for ψ=0 (evalKernel's kernel.Gaussian
		// branch), ClusterKDE always computes √(h²+Δ²) even for Δ=0.
		e.flat.width = mapCols(e.flat.psi, func(j int, p float64) float64 {
			if !cluster && p == 0 {
				return h[j]
			}
			return math.Sqrt(h[j]*h[j] + p*p)
		})
	case modePaperMixed, modePaperAll:
		// Eq. 3 split into a normalizer and a doubled variance so the
		// inner loop is one multiply and one exp per entry.
		e.flat.norm = mapCols(e.flat.psi, func(j int, p float64) float64 {
			return num.InvSqrt2Pi / (h[j] + p)
		})
		e.flat.tv = mapCols(e.flat.psi, func(j int, p float64) float64 {
			return 2 * (h[j]*h[j] + p*p)
		})
	}
	if opt.Eval.Prune > 0 {
		if err := e.buildIndex(cents, psis); err != nil {
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

// buildIndex constructs the k-d tree, the subtree aggregates, and the
// preorder twin of the columns used by the pruned traversal.
func (e *engine) buildIndex(cents, psis [][]float64) error {
	tree, err := kdtree.Build(cents)
	if err != nil {
		return err
	}
	sub, err := tree.Annotate(psis, e.flat.wts)
	if err != nil {
		return err
	}
	e.tree, e.sub = tree, sub
	e.perm = e.flat.permute(sub.Perm)
	return nil
}

// permute returns the column set reordered by the preorder
// permutation: entry t of the result is entry perm[t] of c.
func (c colSet) permute(perm []int32) colSet {
	p := colSet{
		x:     permuteCols(c.x, perm),
		width: permuteCols(c.width, perm),
		psi:   permuteCols(c.psi, perm),
		psiSq: permuteCols(c.psiSq, perm),
		norm:  permuteCols(c.norm, perm),
		tv:    permuteCols(c.tv, perm),
	}
	if c.wts != nil {
		p.wts = permuteCols([][]float64{c.wts}, perm)[0]
	}
	return p
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
// product buffer (len ≥ n). qerr, when non-nil, folds the query's own
// per-dimension errors into every kernel's variance, as in the scalar
// DensityQ. Pruning applies when configured; otherwise the flat column
// scan runs, bit-identical to the scalar path in exact mode.
func (e *engine) density(q, qerr []float64, dims []int, prod []float64) float64 {
	if e.prune > 0 {
		return e.densityPruned(q, qerr, dims)
	}
	return e.densityFlat(q, qerr, dims, prod)
}

// densityFlat is the unpruned scan: the products of every entry, then a
// sum in entry order. Dropping the scalar path's early break on a zero
// product cannot change bits — every Gaussian factor is finite, and
// 0 × finite = 0.
func (e *engine) densityFlat(q, qerr []float64, dims []int, prod []float64) float64 {
	prod = prod[:e.n]
	e.terms(&e.flat, 0, q, qerr, dims, e.expFn(len(dims)), prod)
	var sum float64
	for _, p := range prod {
		sum += p
	}
	return sum / e.total
}

// terms writes into prod the kernel products of entries
// [lo, lo+len(prod)) of cs at q over dims: the starting weight, then one
// dim-major pass per dimension over contiguous columns. It is the one
// implementation of the kernel forms: the flat scan, the pruned walk's
// spans and the shard's partial terms all run it. For an uncertain query
// (qerr non-nil) every width folds in the query's own error with the
// scalar DensityQ's op sequence: ψ² terms add before the square root,
// and the widened σ re-derives from ψ via √(h²+ψ²).
func (e *engine) terms(cs *colSet, lo int, q, qerr []float64, dims []int, exp func(float64) float64, prod []float64) {
	hi := lo + len(prod)
	if cs.wts != nil {
		copy(prod, cs.wts[lo:hi])
	} else {
		for i := range prod {
			prod[i] = 1
		}
	}
	for _, j := range dims {
		if qerr == nil {
			e.mulDim(cs, lo, prod, j, q[j], exp)
			continue
		}
		q2 := qerr[j] * qerr[j]
		if cs.psiSq == nil {
			// No per-entry errors: the widened σ is constant along the
			// column, so hoist it (identical operations, done once).
			psi := math.Sqrt(q2)
			sigma := math.Sqrt(e.h[j]*e.h[j] + psi*psi)
			mulGauss(prod, cs.x[j][lo:hi], q[j], sigma, exp)
			continue
		}
		mulQ(prod, cs.x[j][lo:hi], cs.psiSq[j][lo:hi], q[j], q2, e.h[j], exp)
	}
}

// mulDim multiplies the products of entries [lo, lo+len(prod)) of cs by
// their kernel factors along dimension j at query coordinate v, in the
// form the engine's mode encodes.
func (e *engine) mulDim(cs *colSet, lo int, prod []float64, j int, v float64, exp func(float64) float64) {
	hi := lo + len(prod)
	col := cs.x[j][lo:hi]
	switch e.mode {
	case modePlain:
		mulGauss(prod, col, v, e.h[j], exp)
	case modeWidth:
		mulWidth(prod, col, cs.width[j][lo:hi], v, exp)
	case modePaperMixed:
		mulPaperMixed(prod, col, cs.psi[j][lo:hi], cs.norm[j][lo:hi], cs.tv[j][lo:hi], v, e.h[j], exp)
	case modePaperAll:
		mulPaperAll(prod, col, cs.norm[j][lo:hi], cs.tv[j][lo:hi], v, exp)
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
		e.mulDim(&e.flat, 0, col, j, q[j], math.Exp)
	}
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
