package kde

import "fmt"

// Grid1DOpts evaluates the joint density of a single dimension j on an
// evenly spaced grid of n+1 points spanning [lo, hi]. The returned xs
// are the grid coordinates and ys the densities. The query vector's
// other coordinates are irrelevant because the subspace {j} ignores
// them. Evaluation goes through DensityBatchOpts, so the estimator's
// whole evaluation configuration applies — a Gaussian estimator's SoA
// engine with its Eval.Prune and Eval.Accuracy settings — along with
// opt's context and worker fan-out. In the default exact configuration
// the values are bit-identical to per-point DensitySub calls.
func Grid1DOpts(e Estimator, j int, lo, hi float64, n int, opt BatchOptions) (xs, ys []float64, err error) {
	if n < 1 {
		panic(fmt.Sprintf("kde: grid with n=%d steps", n))
	}
	if hi <= lo {
		panic(fmt.Sprintf("kde: grid range [%v, %v]", lo, hi))
	}
	xs = make([]float64, n+1)
	rows := make([][]float64, n+1)
	backing := make([]float64, (n+1)*e.Dims())
	step := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*step
		xs[i] = x
		rows[i] = backing[i*e.Dims() : (i+1)*e.Dims()]
		rows[i][j] = x
	}
	ys, err = DensityBatchOpts(e, rows, []int{j}, opt)
	if err != nil {
		return nil, nil, err
	}
	return xs, ys, nil
}

// Mass1D integrates the single-dimension density of dimension j over
// [lo, hi] with the trapezoid rule on n intervals. For a well-normalized
// estimator and a range covering the data plus kernel tails, the result
// approaches 1; it is the standard sanity diagnostic for an estimate.
func Mass1D(e Estimator, j int, lo, hi float64, n int) float64 {
	xs, ys, err := Grid1DOpts(e, j, lo, hi, n, BatchOptions{Workers: 1})
	if err != nil {
		panic(fmt.Sprintf("kde: grid evaluation: %v", err)) // unreachable: the background context never cancels and default options are valid
	}
	var s float64
	for i := 1; i < len(xs); i++ {
		s += 0.5 * (ys[i] + ys[i-1]) * (xs[i] - xs[i-1])
	}
	return s
}

// Grid2DOpts evaluates the joint density of dimensions (jx, jy) on an
// (nx+1)×(ny+1) grid. The result is indexed [iy][ix]. Like Grid1DOpts,
// the evaluation runs through DensityBatchOpts and so honors the
// estimator's full evaluation configuration plus opt's context and
// workers.
func Grid2DOpts(e Estimator, jx, jy int, loX, hiX, loY, hiY float64, nx, ny int, opt BatchOptions) ([][]float64, error) {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("kde: grid with nx=%d, ny=%d", nx, ny))
	}
	if hiX <= loX || hiY <= loY {
		panic("kde: empty grid range")
	}
	rows := make([][]float64, (ny+1)*(nx+1))
	backing := make([]float64, len(rows)*e.Dims())
	stepX := (hiX - loX) / float64(nx)
	stepY := (hiY - loY) / float64(ny)
	for iy := 0; iy <= ny; iy++ {
		y := loY + float64(iy)*stepY
		for ix := 0; ix <= nx; ix++ {
			r := backing[(iy*(nx+1)+ix)*e.Dims() : (iy*(nx+1)+ix+1)*e.Dims()]
			r[jx] = loX + float64(ix)*stepX
			r[jy] = y
			rows[iy*(nx+1)+ix] = r
		}
	}
	ds, err := DensityBatchOpts(e, rows, []int{jx, jy}, opt)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, ny+1)
	for iy := range out {
		out[iy] = ds[iy*(nx+1) : (iy+1)*(nx+1)]
	}
	return out, nil
}
