// Package outlier detects anomalous records by error-adjusted density —
// a direct application of the paper's thesis that the density estimate
// is a reusable intermediate representation for mining. A record is an
// outlier when the (leave-one-out) error-adjusted density at it is low:
// genuinely isolated points score low, while points that are merely
// displaced by large *known* errors are forgiven, because their own wide
// kernels testify that their recorded position is unreliable and their
// neighbors' densities already account for it.
package outlier

import (
	"context"
	"fmt"
	"math"
	"sort"

	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/udmerr"
)

// Options configure detection.
type Options struct {
	// Contamination is the fraction of records to flag (default 0.05).
	Contamination float64
	// KDE configures the density estimate. Set KDE.ErrorAdjust to make
	// the detector consume the data's error matrix; left false, the
	// detector is deliberately error-oblivious even on uncertain data.
	KDE kde.Options
	// Dims restricts scoring to a dimension subset (nil = all).
	Dims []int
	// UseQueryError additionally folds each record's OWN error into its
	// score: the density is evaluated in expectation over the record's
	// error distribution, so a reading displaced by a large known error
	// is judged less surprising than an identically-placed reading that
	// claims to be exact. Requires KDE.ErrorAdjust (the data's errors
	// must be loaded into the estimator).
	UseQueryError bool
}

// Result holds per-record scores and flags.
type Result struct {
	// Scores holds the negative log leave-one-out density per record;
	// larger means more anomalous.
	Scores []float64
	// Outlier flags the records whose score is in the top Contamination
	// fraction.
	Outlier []bool
	// Threshold is the score cut applied.
	Threshold float64
}

// Detect scores every record of ds by leave-one-out error-adjusted
// density and flags the lowest-density fraction.
func Detect(ds *dataset.Dataset, opt Options) (*Result, error) {
	if ds.Len() < 2 {
		return nil, fmt.Errorf("outlier: need at least 2 records, have %d: %w", ds.Len(), udmerr.ErrUntrained)
	}
	if opt.Contamination == 0 {
		opt.Contamination = 0.05
	}
	if opt.Contamination < 0 || opt.Contamination >= 1 {
		return nil, fmt.Errorf("outlier: contamination %v out of (0,1): %w", opt.Contamination, udmerr.ErrBadOption)
	}
	if opt.UseQueryError && !opt.KDE.ErrorAdjust {
		return nil, fmt.Errorf("outlier: UseQueryError requires KDE.ErrorAdjust: %w", udmerr.ErrNoErrors)
	}
	est, err := kde.NewPoint(ds, opt.KDE)
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	dims := opt.Dims
	if dims == nil {
		dims = make([]int, ds.Dims())
		for j := range dims {
			dims[j] = j
		}
	}
	scores := make([]float64, ds.Len())
	for i := range scores {
		if opt.UseQueryError {
			scores[i] = negLog(est.LeaveOneOutDensityQ(i, dims))
		} else {
			scores[i] = negLog(est.LeaveOneOutDensity(i, dims))
		}
	}
	return flag(scores, opt.Contamination), nil
}

// DetectStream scores external query points against a micro-cluster
// summary (no leave-one-out needed: queries are not part of the
// summary). queryErrs optionally supplies each query's own per-dimension
// errors (nil = exact queries; individual rows may also be nil), which
// are folded into the expected-density score when opt.UseQueryError is
// set. Useful for online anomaly detection over a stream transform.
//
// Scores come from one serial kde.DensityQBatchOpts call, always exact:
// opt.KDE.Eval is validated, then its Prune and Accuracy are set aside.
// A malformed query or error row returns an error wrapping
// udmerr.ErrDimensionMismatch. Cancelling ctx stops scoring before the
// next query and returns an error wrapping ctx.Err().
func DetectStream(ctx context.Context, s *microcluster.Summarizer, queries, queryErrs [][]float64, opt Options) (*Result, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("outlier: no query points: %w", udmerr.ErrBadData)
	}
	if queryErrs != nil && len(queryErrs) != len(queries) {
		return nil, fmt.Errorf("outlier: %d error rows for %d queries: %w", len(queryErrs), len(queries), udmerr.ErrDimensionMismatch)
	}
	if opt.Contamination == 0 {
		opt.Contamination = 0.05
	}
	if opt.Contamination < 0 || opt.Contamination >= 1 {
		return nil, fmt.Errorf("outlier: contamination %v out of (0,1): %w", opt.Contamination, udmerr.ErrBadOption)
	}
	if err := opt.KDE.Eval.Validate(); err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	kopt := opt.KDE
	kopt.Eval.Prune, kopt.Eval.Accuracy = 0, kernel.Exact()
	est, err := kde.NewCluster(s, kopt)
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	var qerrs [][]float64
	if opt.UseQueryError {
		qerrs = queryErrs
	}
	scores, err := kde.DensityQBatchOpts(est, queries, qerrs, opt.Dims, kde.BatchOptions{Ctx: ctx, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	for i, d := range scores {
		scores[i] = negLog(d)
	}
	return flag(scores, opt.Contamination), nil
}

// Contribution is one dimension's share of a record's anomaly.
type Contribution struct {
	// Dim is the dimension index.
	Dim int
	// Score is the negative log 1-D leave-one-out density of the record
	// in that dimension alone; higher = more anomalous there.
	Score float64
}

// Explain ranks the dimensions of record i by how anomalous the record
// is in each dimension alone (1-D leave-one-out densities), most
// anomalous first — the per-dimension decomposition that tells an
// operator *why* a record was flagged. Options follow Detect (Dims
// restricts the candidates; UseQueryError folds the record's own error
// in).
func Explain(ds *dataset.Dataset, i int, opt Options) ([]Contribution, error) {
	if i < 0 || i >= ds.Len() {
		return nil, fmt.Errorf("outlier: record %d out of range [0,%d): %w", i, ds.Len(), udmerr.ErrBadOption)
	}
	if ds.Len() < 2 {
		return nil, fmt.Errorf("outlier: need at least 2 records, have %d: %w", ds.Len(), udmerr.ErrUntrained)
	}
	if opt.UseQueryError && !opt.KDE.ErrorAdjust {
		return nil, fmt.Errorf("outlier: UseQueryError requires KDE.ErrorAdjust: %w", udmerr.ErrNoErrors)
	}
	est, err := kde.NewPoint(ds, opt.KDE)
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	dims := opt.Dims
	if dims == nil {
		dims = make([]int, ds.Dims())
		for j := range dims {
			dims[j] = j
		}
	}
	out := make([]Contribution, 0, len(dims))
	for _, j := range dims {
		var f float64
		if opt.UseQueryError {
			f = est.LeaveOneOutDensityQ(i, []int{j})
		} else {
			f = est.LeaveOneOutDensity(i, []int{j})
		}
		out = append(out, Contribution{Dim: j, Score: negLog(f)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

func negLog(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return -math.Log(d)
}

func flag(scores []float64, contamination float64) *Result {
	n := len(scores)
	k := int(math.Ceil(contamination * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	threshold := sorted[n-k]
	out := &Result{Scores: scores, Outlier: make([]bool, n), Threshold: threshold}
	flagged := 0
	// Flag strictly-above first, then fill ties up to k in index order so
	// exactly k records are flagged even with tied scores.
	for i, s := range scores {
		if s > threshold {
			out.Outlier[i] = true
			flagged++
		}
	}
	for i, s := range scores {
		if flagged >= k {
			break
		}
		if !out.Outlier[i] && math.Float64bits(s) == math.Float64bits(threshold) {
			out.Outlier[i] = true
			flagged++
		}
	}
	return out
}
