// Package kde implements the density estimators of Aggarwal (ICDE 2007):
// exact error-adjusted kernel density estimation over individual points
// (Eq. 1–4) and the scalable variant over error-based micro-cluster
// summaries (Eq. 9–10). Both estimators evaluate joint densities over
// arbitrary dimension subsets, which is what the density-based classifier
// needs during its subspace roll-up.
package kde

import (
	"fmt"
	"math"

	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/udmerr"
)

// Estimator is a multivariate density estimate that can be evaluated
// over the full dimensionality or any subset of dimensions. Query points
// are always full-dimensional rows; DensitySub uses only the coordinates
// listed in dims.
//
// The unexported soa method seals the interface: PointKDE and ClusterKDE
// are its only implementations, and the batch entry points run every
// estimator on its SoA engine.
type Estimator interface {
	// Density returns the estimated density at x over all dimensions.
	Density(x []float64) float64
	// DensitySub returns the estimated joint density at x over the
	// dimension subset dims.
	DensitySub(x []float64, dims []int) float64
	// DensityQ returns E[f(X)] for X ~ N(x, diag(qerr²)) over dims: the
	// expected density at an uncertain query point. A nil qerr reduces
	// to DensitySub.
	DensityQ(x, qerr []float64, dims []int) float64
	// Dims returns the dimensionality of the underlying data.
	Dims() int
	// Count returns the number of data points the estimate summarizes.
	Count() int
	// soa returns the estimator's SoA batch engine (soa.go).
	soa() *engine
}

// Options configure a density estimator over the paper's Gaussian
// kernel (Eq. 2), widened per entry by Eq. 3–4.
type Options struct {
	// Bandwidth selects the per-dimension smoothing rule; the zero value
	// is the paper's Silverman rule.
	Bandwidth kernel.Bandwidth
	// ErrorAdjust widens each contribution by its per-entry error ψ
	// (Eq. 3). When false, stored errors are ignored, giving the paper's
	// "No Error Adjustment" comparator.
	ErrorAdjust bool
	// PaperKernel selects the kernel exactly as printed in Eq. 3, whose
	// mass dips below 1 for ψ > 0. The default (false) uses the properly
	// normalized Gaussian with variance h²+ψ². Only meaningful when
	// ErrorAdjust is true.
	PaperKernel bool
	// Bandwidths, when non-nil, supplies one explicit smoothing
	// parameter per dimension and overrides the Bandwidth rule — e.g.
	// the output of CVBandwidths. All entries must be positive.
	Bandwidths []float64
	// Eval is the evaluation configuration. This package reads its
	// Prune and Accuracy fields, which shape the batch engine; Backend
	// and the approximate-backend knobs (Epsilon, sizing, Seed) are
	// consumed one layer up by internal/density — this package always
	// builds the exact engine.
	Eval evalopt.Options
}

// evalKernel evaluates the configured 1-D kernel contribution at x for a
// center c, bandwidth h and error psi.
func (o Options) evalKernel(x, c, h, psi float64) float64 {
	if !o.ErrorAdjust || psi == 0 {
		// Equivalent to ErrAdjusted* with ψ=0; avoid the branch there.
		return kernel.Gaussian(x, c, h)
	}
	if o.PaperKernel {
		return kernel.ErrAdjustedPaper(x, c, h, psi)
	}
	return kernel.ErrAdjustedNormalized(x, c, h, psi)
}

// PointKDE is the exact estimator of Eq. 1–4: one kernel per data point,
// per-dimension bandwidths, and optional per-entry error adjustment.
type PointKDE struct {
	x    [][]float64
	errs [][]float64 // nil when the data has no error information
	h    []float64   // per-dimension bandwidth
	opt  Options
	eng  *engine // SoA batch engine
}

var _ Estimator = (*PointKDE)(nil)

// NewPoint builds an exact kernel density estimate over the rows of ds.
// Bandwidths are computed per dimension from the data using the
// configured rule (Silverman by default, as in the paper).
func NewPoint(ds *dataset.Dataset, opt Options) (*PointKDE, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, err
	}
	h, err := RowBandwidths(ds, opt)
	if err != nil {
		return nil, err
	}
	k := &PointKDE{x: ds.X, h: h, opt: opt}
	if opt.ErrorAdjust && ds.HasErrors() {
		k.errs = ds.Err
	}
	k.eng, err = newEngine(opt, h, float64(len(ds.X)), ds.X, k.errs, nil, false)
	if err != nil {
		return nil, fmt.Errorf("kde: building spatial index: %w", err)
	}
	return k, nil
}

// WithAccuracy returns a shallow copy of the estimator whose batch
// density paths run under the given accuracy mode; the underlying data,
// bandwidths and spatial index are shared with the receiver, so the
// copy is cheap enough for per-request use. Per-query methods stay
// exact.
func (k *PointKDE) WithAccuracy(m kernel.AccuracyMode) (*PointKDE, error) {
	c := *k
	c.opt.Eval.Accuracy = m
	if err := c.opt.Eval.Validate(); err != nil {
		return nil, err
	}
	c.eng = k.eng.withAccuracy(m)
	return &c, nil
}

// Dims returns the data dimensionality.
func (k *PointKDE) Dims() int { return len(k.h) }

func (k *PointKDE) soa() *engine { return k.eng }

// Count returns the number of points in the estimate.
func (k *PointKDE) Count() int { return len(k.x) }

// BandwidthFor returns the smoothing parameter h_j used for dimension j.
func (k *PointKDE) BandwidthFor(j int) float64 { return k.h[j] }

// Density returns the estimated density at x over all dimensions.
func (k *PointKDE) Density(x []float64) float64 {
	return k.DensitySub(x, allDims(len(k.h)))
}

// DensitySub returns the estimated joint density at x over dims:
// f(x) = (1/N) Σ_i Π_{j∈dims} K_{h_j,ψ_j(X_i)}(x_j − X_ij).
func (k *PointKDE) DensitySub(x []float64, dims []int) float64 {
	checkQuery(x, len(k.h))
	checkDims(dims, len(k.h))
	var sum float64
	for i := range k.x {
		prod := 1.0
		for _, j := range dims {
			prod *= k.factor(x[j], i, j)
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / float64(len(k.x))
}

// factor is point i's kernel factor along dimension j at coordinate v,
// widened by the point's recorded error when error adjustment is on.
func (k *PointKDE) factor(v float64, i, j int) float64 {
	psi := 0.0
	if k.errs != nil {
		psi = k.errs[i][j]
	}
	return k.opt.evalKernel(v, k.x[i][j], k.h[j], psi)
}

// DensityQ returns the expected density at an uncertain query point:
// the query's own per-dimension standard errors qerr are folded into
// every kernel's variance (variances add under independent Gaussian
// noise), so the result is E[f(X)] for X ~ N(x, diag(qerr²)). A nil qerr
// reduces to DensitySub.
func (k *PointKDE) DensityQ(x, qerr []float64, dims []int) float64 {
	if qerr == nil {
		return k.DensitySub(x, dims)
	}
	if len(x) != len(k.h) || len(qerr) != len(k.h) {
		panic(fmt.Sprintf("kde: query point/error have %d/%d dims, estimator has %d", len(x), len(qerr), len(k.h)))
	}
	checkDims(dims, len(k.h))
	var sum float64
	for i, xi := range k.x {
		var er []float64
		if k.errs != nil {
			er = k.errs[i]
		}
		prod := 1.0
		for _, j := range dims {
			psi2 := qerr[j] * qerr[j]
			if er != nil {
				psi2 += er[j] * er[j]
			}
			prod *= kernel.ErrAdjustedNormalized(x[j], xi[j], k.h[j], math.Sqrt(psi2))
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / float64(len(k.x))
}

// LeaveOneOutDensityQ is the leave-one-out variant of DensityQ for
// training point i, treating the point's own recorded error as the query
// error. It answers "how surprising is this record, given its own error
// bar?" — the right question for outlier detection on uncertain data.
func (k *PointKDE) LeaveOneOutDensityQ(i int, dims []int) float64 {
	if i < 0 || i >= len(k.x) {
		panic(fmt.Sprintf("kde: leave-one-out index %d out of range [0,%d)", i, len(k.x)))
	}
	if len(k.x) == 1 {
		return 0
	}
	checkDims(dims, len(k.h))
	var qerr []float64
	if k.errs != nil {
		qerr = k.errs[i]
	}
	x := k.x[i]
	var full float64
	if qerr == nil {
		full = k.DensitySub(x, dims)
	} else {
		full = k.DensityQ(x, qerr, dims)
	}
	// Self contribution under the same widened kernel.
	self := 1.0
	for _, j := range dims {
		psi2 := 0.0
		if qerr != nil {
			psi2 = 2 * qerr[j] * qerr[j] // own ψ appears as train and query error
		}
		self *= kernel.ErrAdjustedNormalized(x[j], x[j], k.h[j], math.Sqrt(psi2))
	}
	n := float64(len(k.x))
	loo := (full*n - self) / (n - 1)
	if loo < 0 {
		return 0
	}
	return loo
}

// LeaveOneOutDensity returns the density at training point i over dims
// with point i's own kernel removed — the standard correction when
// scoring training points themselves (e.g. outlier detection), where the
// self-contribution would otherwise mask low-density points. It panics
// when i is out of range; it returns 0 for a single-point estimate.
func (k *PointKDE) LeaveOneOutDensity(i int, dims []int) float64 {
	if i < 0 || i >= len(k.x) {
		panic(fmt.Sprintf("kde: leave-one-out index %d out of range [0,%d)", i, len(k.x)))
	}
	n := float64(len(k.x))
	if len(k.x) == 1 {
		return 0
	}
	checkDims(dims, len(k.h))
	x := k.x[i]
	full := k.DensitySub(x, dims)
	var er []float64
	if k.errs != nil {
		er = k.errs[i]
	}
	self := 1.0
	for _, j := range dims {
		psi := 0.0
		if er != nil {
			psi = er[j]
		}
		self *= k.opt.evalKernel(x[j], x[j], k.h[j], psi)
	}
	loo := (full*n - self) / (n - 1)
	if loo < 0 {
		return 0 // floating-point residue
	}
	return loo
}

// ClusterKDE is the scalable estimator of Eq. 9–10: one kernel per
// micro-cluster pseudo-point, weighted by cluster size, with the
// pseudo-point error Δ (Lemma 1) standing in for per-point errors.
type ClusterKDE struct {
	cents   [][]float64
	deltas  [][]float64 // per-cluster, per-dimension pseudo-point errors
	weights []float64   // n(C_i)
	total   float64     // N = Σ n(C_i)
	h       []float64
	opt     Options
	eng     *engine // SoA batch engine
}

var _ Estimator = (*ClusterKDE)(nil)

// NewCluster builds a density estimate from micro-cluster summaries.
// Bandwidths use the merged per-dimension σ of the summarized data and
// the total point count, matching what the exact estimator would compute
// up to summarization error.
//
// When opt.ErrorAdjust is false the pseudo-point error still includes the
// within-cluster variance — that spread is real data spread, not
// measurement error — but the EF2 error statistics are ignored.
func NewCluster(s *microcluster.Summarizer, opt Options) (*ClusterKDE, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, err
	}
	h, err := SummaryBandwidths(s, opt)
	if err != nil {
		return nil, err
	}
	d := s.Dims()
	k := &ClusterKDE{total: float64(s.Count()), h: h, opt: opt}
	for i := 0; i < s.Len(); i++ {
		f := s.Feature(i)
		k.cents = append(k.cents, f.Centroid(nil))
		delta := make([]float64, d)
		for j := 0; j < d; j++ {
			v := f.Variance(j)
			if opt.ErrorAdjust {
				v += f.MeanErr2(j)
			}
			delta[j] = math.Sqrt(v)
		}
		k.deltas = append(k.deltas, delta)
		k.weights = append(k.weights, float64(f.N))
	}
	k.eng, err = newEngine(opt, h, k.total, k.cents, k.deltas, k.weights, true)
	if err != nil {
		return nil, fmt.Errorf("kde: building spatial index: %w", err)
	}
	return k, nil
}

// WithAccuracy returns a shallow copy of the estimator whose batch
// density paths run under the given accuracy mode, sharing all data
// with the receiver. Per-query methods stay exact.
func (k *ClusterKDE) WithAccuracy(m kernel.AccuracyMode) (*ClusterKDE, error) {
	c := *k
	c.opt.Eval.Accuracy = m
	if err := c.opt.Eval.Validate(); err != nil {
		return nil, err
	}
	c.eng = k.eng.withAccuracy(m)
	return &c, nil
}

// Dims returns the data dimensionality.
func (k *ClusterKDE) Dims() int { return len(k.h) }

func (k *ClusterKDE) soa() *engine { return k.eng }

// Count returns the total number of points summarized.
func (k *ClusterKDE) Count() int { return int(k.total) }

// Clusters returns the number of micro-cluster pseudo-points.
func (k *ClusterKDE) Clusters() int { return len(k.cents) }

// BandwidthFor returns the smoothing parameter h_j used for dimension j.
func (k *ClusterKDE) BandwidthFor(j int) float64 { return k.h[j] }

// Density returns the estimated density at x over all dimensions.
func (k *ClusterKDE) Density(x []float64) float64 {
	return k.DensitySub(x, allDims(len(k.h)))
}

// DensitySub returns the estimated joint density at x over dims:
// f(x) = (1/N) Σ_i n(C_i) Π_{j∈dims} Q'_{h_j,Δ_j(C_i)}(x_j − c_ij).
//
// The cluster kernel always goes through the error-adjusted form because
// Δ is nonzero for any cluster with spread, regardless of ErrorAdjust.
func (k *ClusterKDE) DensitySub(x []float64, dims []int) float64 {
	checkQuery(x, len(k.h))
	checkDims(dims, len(k.h))
	var sum float64
	for i := range k.cents {
		prod := k.weights[i]
		for _, j := range dims {
			prod *= k.factor(x[j], i, j)
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / k.total
}

// factor is pseudo-point i's kernel factor along dimension j at
// coordinate v: Eq. 9's kernel widened by the pseudo-point error Δ.
func (k *ClusterKDE) factor(v float64, i, j int) float64 {
	if k.opt.PaperKernel {
		return kernel.ErrAdjustedPaper(v, k.cents[i][j], k.h[j], k.deltas[i][j])
	}
	return kernel.ErrAdjustedNormalized(v, k.cents[i][j], k.h[j], k.deltas[i][j])
}

// DensityQ returns the expected density at an uncertain query point over
// micro-cluster summaries: the query's per-dimension errors add (in
// variance) to each pseudo-point's Δ. A nil qerr reduces to DensitySub.
func (k *ClusterKDE) DensityQ(x, qerr []float64, dims []int) float64 {
	if qerr == nil {
		return k.DensitySub(x, dims)
	}
	if len(x) != len(k.h) || len(qerr) != len(k.h) {
		panic(fmt.Sprintf("kde: query point/error have %d/%d dims, estimator has %d", len(x), len(qerr), len(k.h)))
	}
	checkDims(dims, len(k.h))
	var sum float64
	for i, c := range k.cents {
		prod := k.weights[i]
		for _, j := range dims {
			d := k.deltas[i][j]
			psi := math.Sqrt(d*d + qerr[j]*qerr[j])
			prod *= kernel.ErrAdjustedNormalized(x[j], c[j], k.h[j], psi)
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / k.total
}

// RowBandwidths resolves the per-dimension bandwidths NewPoint uses
// over the rows of ds: opt.Bandwidths when set (validated), otherwise
// opt.Bandwidth's rule over each column. An empty ds wraps
// udmerr.ErrUntrained.
func RowBandwidths(ds *dataset.Dataset, opt Options) ([]float64, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("kde: empty dataset: %w", udmerr.ErrUntrained)
	}
	d := ds.Dims()
	col := make([]float64, ds.Len())
	return explicitOrRule(opt, d, func(j int) float64 {
		for i := range ds.X {
			col[i] = ds.X[i][j]
		}
		return opt.Bandwidth.FromValues(col, d)
	})
}

// SummaryBandwidths resolves the per-dimension bandwidths NewCluster
// uses over the summary s: opt.Bandwidths when set (validated),
// otherwise opt.Bandwidth's rule from the merged per-dimension σ and
// the total count. An empty s wraps udmerr.ErrUntrained.
func SummaryBandwidths(s *microcluster.Summarizer, opt Options) ([]float64, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("kde: empty summarizer: %w", udmerr.ErrUntrained)
	}
	d, n, sig := s.Dims(), s.Count(), s.Sigmas()
	return explicitOrRule(opt, d, func(j int) float64 {
		return opt.Bandwidth.FromSigma(sig[j], n, d)
	})
}

// explicitOrRule resolves per-dimension bandwidths: a copy of explicit
// opt.Bandwidths when supplied, otherwise the rule via fromRule. Either
// way every bandwidth must be positive and finite. The rules floor h at
// MinH, so a rule-derived h is non-finite only when its input is:
// non-finite data, such as overflowed Definition-1 sums, or a
// non-finite Fixed value. That wraps udmerr.ErrBadData; a bad explicit
// value wraps udmerr.ErrBadOption.
func explicitOrRule(opt Options, d int, fromRule func(j int) float64) ([]float64, error) {
	h := make([]float64, d)
	if opt.Bandwidths == nil {
		for j := range h {
			h[j] = fromRule(j)
			if math.IsNaN(h[j]) || math.IsInf(h[j], 0) {
				return nil, fmt.Errorf("kde: %v bandwidth[%d] = %v is not finite: %w", opt.Bandwidth.Rule, j, h[j], udmerr.ErrBadData)
			}
		}
		return h, nil
	}
	if len(opt.Bandwidths) != d {
		return nil, fmt.Errorf("kde: %d explicit bandwidths for %d dimensions: %w", len(opt.Bandwidths), d, udmerr.ErrDimensionMismatch)
	}
	for j, v := range opt.Bandwidths {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kde: explicit bandwidth[%d] = %v must be positive and finite: %w", j, v, udmerr.ErrBadOption)
		}
		h[j] = v
	}
	return h, nil
}

func allDims(d int) []int {
	dims := make([]int, d)
	for j := range dims {
		dims[j] = j
	}
	return dims
}

func checkQuery(x []float64, d int) {
	if len(x) != d {
		panic(fmt.Sprintf("kde: query point has %d dims, estimator has %d", len(x), d))
	}
}

func checkDims(dims []int, d int) {
	for _, j := range dims {
		if j < 0 || j >= d {
			panic(fmt.Sprintf("kde: subspace dimension %d out of range [0,%d)", j, d))
		}
	}
}
