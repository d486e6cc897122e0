package kde

// FactorTable holds one query point's kernel factors for one estimator:
// f[j][i] is the factor DensitySub multiplies for entry i along
// dimension j. The (error-adjusted) kernel is a product over
// dimensions, so the density over any subset S is
//
//	Σ_i w_i · Π_{j∈S} f[j][i] / total
//
// with w_i the entry's starting product (the cluster weight n(C_i), or 1
// for a PointKDE). DensitySub pays n·|S| kernel evaluations per subset;
// a table pays n·d once per point and then only multiplies, which is
// what a subspace search scoring dozens of subsets per point wants.
//
// Table densities are bit-identical to the estimator's DensitySub at the
// tabulated point: each cell is the exact factor DensitySub computes,
// and DensitySub here starts from the same w_i, multiplies in the order
// dims lists, and sums in entry order. The one difference is that
// DensitySub stops multiplying an entry once its product is zero; for a
// finite query every factor is finite, and 0 times a finite factor is 0,
// so the products agree.
//
// The zero value is ready to fill. Storage grows on demand and is reused
// by later fills, so a pooled table allocates nothing in steady state.
// DensitySub writes the table's scratch, so one table serves one
// goroutine at a time.
type FactorTable struct {
	f     [][]float64 // f[j][i], views into buf
	buf   []float64
	wts   []float64 // starting product per entry; nil = 1
	total float64
	prod  []float64 // per-entry product scratch
}

// reset shapes t for n entries over d dimensions.
func (t *FactorTable) reset(n, d int, wts []float64, total float64) {
	if cap(t.buf) < n*d {
		t.buf = make([]float64, n*d)
	}
	if cap(t.f) < d {
		t.f = make([][]float64, d)
	}
	if cap(t.prod) < n {
		t.prod = make([]float64, n)
	}
	t.f, t.prod = t.f[:d], t.prod[:n]
	for j := range t.f {
		t.f[j] = t.buf[j*n : (j+1)*n : (j+1)*n]
	}
	t.wts, t.total = wts, total
}

// DensitySub returns the density over dims at the tabulated point,
// bit-identical to the estimator's DensitySub there. dims need not be
// ascending; it is taken in the order given.
func (t *FactorTable) DensitySub(dims []int) float64 {
	checkDims(dims, len(t.f))
	prod := t.prod
	if t.wts != nil {
		copy(prod, t.wts)
	} else {
		for i := range prod {
			prod[i] = 1
		}
	}
	for _, j := range dims {
		for i, v := range t.f[j] {
			prod[i] *= v
		}
	}
	var sum float64
	for _, p := range prod {
		sum += p
	}
	return sum / t.total
}

// FactorTable fills t with every kernel factor of the estimator at x.
// Eval.Prune and Eval.Accuracy never apply: the table reproduces
// DensitySub, which ignores both.
func (k *PointKDE) FactorTable(x []float64, t *FactorTable) {
	checkQuery(x, len(k.h))
	t.reset(len(k.x), len(k.h), nil, float64(len(k.x)))
	k.eng.factors(x, t.f)
}

// FactorTable fills t with every kernel factor of the estimator at x.
// Eval.Prune and Eval.Accuracy never apply: the table reproduces
// DensitySub, which ignores both.
func (k *ClusterKDE) FactorTable(x []float64, t *FactorTable) {
	checkQuery(x, len(k.h))
	t.reset(len(k.cents), len(k.h), k.weights, k.total)
	k.eng.factors(x, t.f)
}
