package kde

import (
	"fmt"
	"math"

	"udm/internal/rng"
	"udm/internal/udmerr"
)

// Sample draws n points from the estimated density: a data point is
// chosen uniformly, then each coordinate is drawn from that point's
// (error-adjusted) Gaussian kernel. The draws are i.i.d. from exactly
// the distribution Density integrates to (the normalized kernel form),
// which makes Sample a synthetic-data generator: it publishes the
// learned distribution, not the original records.
func (k *PointKDE) Sample(n int, r *rng.Source) ([][]float64, error) {
	if err := sampleArgs(k.opt, n, r); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for s := 0; s < n; s++ {
		i := r.Intn(len(k.x))
		var er []float64
		if k.errs != nil {
			er = k.errs[i]
		}
		row := make([]float64, len(k.h)) //lint:allow hotalloc each sampled row is returned to the caller; allocation is the output itself
		for j := range row {
			sigma := k.h[j]
			if er != nil {
				sigma = math.Sqrt(sigma*sigma + er[j]*er[j])
			}
			row[j] = r.Norm(k.x[i][j], sigma)
		}
		out[s] = row
	}
	return out, nil
}

// Sample draws n points from the micro-cluster density: a cluster is
// chosen with probability proportional to its size, then each coordinate
// is drawn from the pseudo-point's kernel (variance h² + Δ²). This
// samples from the compressed model only — the original records are not
// needed, which is the privacy-friendly publication path.
func (k *ClusterKDE) Sample(n int, r *rng.Source) ([][]float64, error) {
	if err := sampleArgs(k.opt, n, r); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for s := 0; s < n; s++ {
		i := r.Categorical(k.weights)
		row := make([]float64, len(k.h)) //lint:allow hotalloc each sampled row is returned to the caller; allocation is the output itself
		for j := range row {
			d := k.deltas[i][j]
			sigma := math.Sqrt(k.h[j]*k.h[j] + d*d)
			row[j] = r.Norm(k.cents[i][j], sigma)
		}
		out[s] = row
	}
	return out, nil
}

func sampleArgs(opt Options, n int, r *rng.Source) error {
	if n < 1 {
		return fmt.Errorf("kde: sampling n=%d points: %w", n, udmerr.ErrBadOption)
	}
	if r == nil {
		return fmt.Errorf("kde: nil random source: %w", udmerr.ErrBadOption)
	}
	if opt.PaperKernel {
		return fmt.Errorf("kde: sampling from the unnormalized paper kernel is undefined; use the normalized form: %w", udmerr.ErrBadOption)
	}
	return nil
}
