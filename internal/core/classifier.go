package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/parallel"
	"udm/internal/udmerr"
)

// DefaultThreshold is the accuracy threshold a used when
// ClassifierOptions leaves Threshold at zero. A(x, S, l) behaves like the
// class-l posterior share in subspace S, so a threshold above 0.5 demands
// subspaces where one class clearly dominates.
const DefaultThreshold = 0.6

// DefaultMaxSubspaceSize bounds the roll-up depth when
// ClassifierOptions leaves MaxSubspaceSize at zero. The paper notes that
// low-dimensional projections usually carry the discriminatory signal.
const DefaultMaxSubspaceSize = 3

// densityFloor guards the accuracy ratio of Eq. (11) against division by
// vanishing global densities far outside the data.
const densityFloor = 1e-300

// ClassifierOptions configure the density-based classification algorithm
// of Figure 3.
type ClassifierOptions struct {
	// Threshold is the local-accuracy threshold a of Fig. 3: a subspace S
	// is retained when max_l A(x, S, l) > Threshold. Defaults to
	// DefaultThreshold when 0.
	Threshold float64
	// MaxSubspaceSize caps the roll-up depth (the largest |S| explored).
	// 0 means DefaultMaxSubspaceSize; negative means unlimited, the
	// literal Fig. 3 loop that runs until no candidate passes.
	MaxSubspaceSize int
	// MaxSubspaces is the cap p on the number of non-overlapping
	// subspaces that vote (0 = use all, as in the base algorithm).
	MaxSubspaces int
	// KDE configures the density estimators. For transform-based
	// classifiers the ErrorAdjust field is forced to match the transform.
	KDE kde.Options
}

func (o ClassifierOptions) withDefaults() ClassifierOptions {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.MaxSubspaceSize == 0 {
		o.MaxSubspaceSize = DefaultMaxSubspaceSize
	}
	return o
}

// Classifier is the density-based subspace classifier of Figure 3. It
// holds one density estimator per class plus a global estimator and
// classifies each test point by hunting for the non-overlapping dimension
// subsets in which some class's instance-specific local accuracy
// (Eq. 11) is highest.
type Classifier struct {
	global     factorEstimator
	class      []factorEstimator
	classCount []int
	total      float64
	dims       int
	opt        ClassifierOptions
	tables     sync.Pool // *pointTables, one borrowed per decided point
}

// factorEstimator is what the classifier needs of a density estimator:
// DensitySub for Accuracy, and a factor table per test point for the
// roll-up. kde.ClusterKDE and kde.PointKDE both qualify.
type factorEstimator interface {
	DensitySub(x []float64, dims []int) float64
	FactorTable(x []float64, t *kde.FactorTable)
}

// pointTables holds one test point's factor tables, the global
// estimator's and one per class, plus the roll-up's reusable scratch.
type pointTables struct {
	global kde.FactorTable
	class  []kde.FactorTable
	dims   []int  // the candidate being keyed
	key    []byte // its dedup key
}

// NewClassifier builds the scalable classifier over a density-based
// transform: all densities are computed from the micro-cluster summaries
// via Eq. 9–10, never from the original records. The KDE error adjustment
// follows the transform (a transform built without error adjustment
// classifies without it).
func NewClassifier(t *Transform, opt ClassifierOptions) (*Classifier, error) {
	opt = opt.withDefaults()
	opt.KDE.ErrorAdjust = t.ErrorAdjusted()
	global, err := kde.NewCluster(t.Global(), opt.KDE)
	if err != nil {
		return nil, fmt.Errorf("core: building global density: %w", err)
	}
	c := &Classifier{
		global:     global,
		classCount: t.classCount,
		total:      float64(t.Count()),
		dims:       t.Dims(),
		opt:        opt,
	}
	for l := 0; l < t.NumClasses(); l++ {
		est, err := kde.NewCluster(t.Class(l), opt.KDE)
		if err != nil {
			return nil, fmt.Errorf("core: building class %d density: %w", l, err)
		}
		c.class = append(c.class, est)
	}
	return c, nil
}

// NewClassifierFromSummaries builds a classifier directly from explicit
// micro-cluster summaries: one global summarizer, one per class, and the
// per-class row counts. It is the low-level hook used by ablations that
// construct summaries with non-standard maintenance policies.
func NewClassifierFromSummaries(global *microcluster.Summarizer, class []*microcluster.Summarizer, classCount []int, opt ClassifierOptions) (*Classifier, error) {
	opt = opt.withDefaults()
	if len(class) < 2 {
		return nil, fmt.Errorf("core: %d class summaries, need at least 2: %w", len(class), udmerr.ErrUntrained)
	}
	if len(classCount) != len(class) {
		return nil, fmt.Errorf("core: %d class counts for %d classes: %w", len(classCount), len(class), udmerr.ErrDimensionMismatch)
	}
	g, err := kde.NewCluster(global, opt.KDE)
	if err != nil {
		return nil, fmt.Errorf("core: building global density: %w", err)
	}
	c := &Classifier{
		global:     g,
		classCount: classCount,
		dims:       global.Dims(),
		opt:        opt,
	}
	for l, s := range class {
		if s.Dims() != global.Dims() {
			return nil, fmt.Errorf("core: class %d summary has %d dims, global has %d: %w", l, s.Dims(), global.Dims(), udmerr.ErrDimensionMismatch)
		}
		est, err := kde.NewCluster(s, opt.KDE)
		if err != nil {
			return nil, fmt.Errorf("core: building class %d density: %w", l, err)
		}
		c.class = append(c.class, est)
		c.total += float64(classCount[l])
	}
	if c.total <= 0 {
		return nil, fmt.Errorf("core: class counts sum to %v: %w", c.total, udmerr.ErrUntrained)
	}
	return c, nil
}

// NewExactClassifier builds the uncompressed reference classifier: the
// same Figure-3 algorithm with exact point-kernel densities (Eq. 1–4)
// instead of micro-cluster densities. Used for fidelity cross-checks and
// small data sets. Error adjustment follows opt.KDE.ErrorAdjust.
func NewExactClassifier(train *dataset.Dataset, opt ClassifierOptions) (*Classifier, error) {
	opt = opt.withDefaults()
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid training data: %w", err)
	}
	k := train.NumClasses()
	if k < 2 {
		return nil, fmt.Errorf("core: training data has %d classes, need at least 2: %w", k, udmerr.ErrUntrained)
	}
	global, err := kde.NewPoint(train, opt.KDE)
	if err != nil {
		return nil, fmt.Errorf("core: building global density: %w", err)
	}
	c := &Classifier{
		global: global,
		total:  float64(train.Len()),
		dims:   train.Dims(),
		opt:    opt,
	}
	for l, part := range train.ByClass() {
		if part.Len() == 0 {
			return nil, fmt.Errorf("core: class %d has no training rows: %w", l, udmerr.ErrUntrained)
		}
		est, err := kde.NewPoint(part, opt.KDE)
		if err != nil {
			return nil, fmt.Errorf("core: building class %d density: %w", l, err)
		}
		c.class = append(c.class, est)
		c.classCount = append(c.classCount, part.Len())
	}
	return c, nil
}

// Dims returns the dimensionality the classifier was trained on.
func (c *Classifier) Dims() int { return c.dims }

// NumClasses returns the number of classes.
func (c *Classifier) NumClasses() int { return len(c.class) }

// SubspaceScore records one retained subspace and its best class.
type SubspaceScore struct {
	// Dims is the dimension subset S, ascending.
	Dims []int
	// Class is dom(x, S), the class with the highest local accuracy.
	Class int
	// Accuracy is A(x, S, Class), the winning local accuracy (Eq. 11).
	Accuracy float64
}

// Decision is the full outcome of classifying one test point.
type Decision struct {
	// Label is the predicted class.
	Label int
	// Chosen holds the non-overlapping subspaces that voted, in selection
	// order (highest accuracy first).
	Chosen []SubspaceScore
	// Candidates is the number of subspaces whose densities were
	// evaluated during the roll-up.
	Candidates int
	// Levels is the largest subspace size explored.
	Levels int
	// Fallback is true when no subspace passed the threshold and the
	// label came from the full-dimensional dominant class instead.
	Fallback bool
}

// Accuracy returns the instance-specific local accuracy A(x, S, l) of
// Eq. (11): the class-l share of the density at x in subspace S, weighted
// by class size. Exposed for diagnostics and tests.
func (c *Classifier) Accuracy(x []float64, dims []int, label int) float64 {
	gd := c.global.DensitySub(x, dims)
	if gd <= densityFloor {
		return 0
	}
	cd := c.class[label].DensitySub(x, dims)
	return float64(c.classCount[label]) * cd / (c.total * gd)
}

// tablesAt borrows a pointTables from the pool and fills it at x. Every
// candidate subspace of x is then scored from the tables, so each kernel
// factor is evaluated once per point rather than once per candidate.
// Return the tables with c.tables.Put.
func (c *Classifier) tablesAt(x []float64) *pointTables {
	t, _ := c.tables.Get().(*pointTables)
	if t == nil {
		t = &pointTables{class: make([]kde.FactorTable, len(c.class))}
	}
	c.global.FactorTable(x, &t.global)
	for l, est := range c.class {
		est.FactorTable(x, &t.class[l])
	}
	return t
}

// accuracyAll returns dom(x, S) and its accuracy from x's factor tables,
// plus ok=false when the global density underflows. The densities are
// bit-identical to DensitySub's, so the result equals Accuracy's.
func (c *Classifier) accuracyAll(t *pointTables, dims []int) (best int, acc float64, ok bool) {
	gd := t.global.DensitySub(dims)
	if gd <= densityFloor {
		return 0, 0, false
	}
	denom := c.total * gd
	for l := range t.class {
		a := float64(c.classCount[l]) * t.class[l].DensitySub(dims) / denom
		if a > acc {
			best, acc = l, a
		}
	}
	return best, acc, true
}

// checkPoint rejects a test point of the wrong length or with a NaN or
// ±Inf coordinate, which would turn every density of the roll-up into
// NaN (or 0) and the decision into a silent fallback.
func (c *Classifier) checkPoint(x []float64) error {
	if len(x) != c.dims {
		return fmt.Errorf("core: test point has %d dims, classifier has %d: %w", len(x), c.dims, udmerr.ErrDimensionMismatch)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: test point coordinate %d is %v: %w", j, v, udmerr.ErrBadData)
		}
	}
	return nil
}

// FullSpace wraps the classifier's density machinery without the
// subspace roll-up: it always predicts argmax_l A(x, all dims, l), the
// density-Bayes decision over the full dimensionality. Comparing it with
// the full classifier isolates the contribution of Fig. 3's subspace
// hunt (see the ablation-subspace experiment).
func (c *Classifier) FullSpace() *FullSpaceClassifier {
	return &FullSpaceClassifier{c: c}
}

// FullSpaceClassifier is the full-dimensional density-Bayes comparator.
type FullSpaceClassifier struct {
	c *Classifier
}

// Classify returns the class with the highest full-dimensional local
// accuracy, falling back to the training prior when densities underflow.
// Like Decide, it rejects NaN and ±Inf coordinates with udmerr.ErrBadData.
func (f *FullSpaceClassifier) Classify(x []float64) (int, error) {
	c := f.c
	if err := c.checkPoint(x); err != nil {
		return 0, err
	}
	t := c.tablesAt(x)
	defer c.tables.Put(t)
	if best, _, ok := c.accuracyAll(t, allDims(c.dims)); ok {
		return best, nil
	}
	return argmaxInt(c.classCount), nil
}

// Probabilities returns normalized class scores for x derived from the
// decision's voting subspaces: each chosen subspace contributes its
// local accuracy to its dominant class, and the totals are normalized to
// sum to 1. When the decision fell back (no subspace passed the
// threshold), the full-dimensional accuracies themselves are normalized,
// and if even those underflow the training priors are returned. The
// argmax of the result equals Decide's label up to the vote tie-break.
func (c *Classifier) Probabilities(x []float64) ([]float64, error) {
	dec, err := c.Decide(x)
	if err != nil {
		return nil, err
	}
	p := make([]float64, len(c.class))
	if !dec.Fallback {
		for _, s := range dec.Chosen {
			p[s.Class] += s.Accuracy
		}
		return normalizeOrPriors(p, c.classCount), nil
	}
	dims := allDims(c.dims)
	for l := range c.class {
		p[l] = c.Accuracy(x, dims, l)
	}
	return normalizeOrPriors(p, c.classCount), nil
}

// normalizeOrPriors normalizes p to sum to 1, falling back to training
// priors when the total is zero.
func normalizeOrPriors(p []float64, counts []int) []float64 {
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		var n float64
		for _, c := range counts {
			n += float64(c)
		}
		for l := range p {
			p[l] = float64(counts[l]) / n
		}
		return p
	}
	for l := range p {
		p[l] /= sum
	}
	return p
}

// ClassifyBatchContext classifies every row of X in parallel using the
// given number of worker goroutines (≤ 0 means GOMAXPROCS) under a
// caller-supplied context: cancelling ctx aborts row chunks that have
// not started and returns ctx.Err(). The classifier is read-only after
// construction, so workers share it safely. The first error aborts the
// batch. Labels are bit-for-bit identical to calling Classify row by
// row, for every worker count.
func (c *Classifier) ClassifyBatchContext(ctx context.Context, X [][]float64, workers int) ([]int, error) {
	if len(X) == 0 {
		return nil, nil
	}
	return parallel.Map(ctx, len(X), workers, func(i int) (int, error) {
		return c.Classify(X[i])
	})
}

// ClassifyBatch is ClassifyBatchContext under context.Background();
// prefer the context form in code that must honor cancellation.
func (c *Classifier) ClassifyBatch(X [][]float64, workers int) ([]int, error) {
	return c.ClassifyBatchContext(context.Background(), X, workers)
}

// PredictBatchContext runs the full Figure-3 decision procedure over
// every row of X in parallel (workers ≤ 0 means GOMAXPROCS) under a
// caller-supplied context and returns one decision trace per row. Every
// row is decided by exactly the same serial code as Decide and written
// to its own result slot, so the output is identical to the serial loop
// for every worker count. The first error, in row-chunk order, aborts
// the batch; so does cancelling ctx.
func (c *Classifier) PredictBatchContext(ctx context.Context, X [][]float64, workers int) ([]*Decision, error) {
	if len(X) == 0 {
		return nil, nil
	}
	return parallel.Map(ctx, len(X), workers, func(i int) (*Decision, error) {
		return c.Decide(X[i])
	})
}

// PredictBatch is PredictBatchContext under context.Background().
func (c *Classifier) PredictBatch(X [][]float64, workers int) ([]*Decision, error) {
	return c.PredictBatchContext(context.Background(), X, workers)
}

// ProbabilitiesBatchContext returns Probabilities for every row of X in
// parallel (workers ≤ 0 means GOMAXPROCS) under a caller-supplied
// context, one normalized class-score vector per row, identical to the
// serial loop for every worker count.
func (c *Classifier) ProbabilitiesBatchContext(ctx context.Context, X [][]float64, workers int) ([][]float64, error) {
	if len(X) == 0 {
		return nil, nil
	}
	return parallel.Map(ctx, len(X), workers, func(i int) ([]float64, error) {
		return c.Probabilities(X[i])
	})
}

// ProbabilitiesBatch is ProbabilitiesBatchContext under
// context.Background().
func (c *Classifier) ProbabilitiesBatch(X [][]float64, workers int) ([][]float64, error) {
	return c.ProbabilitiesBatchContext(context.Background(), X, workers)
}

// Classify predicts the class of x.
func (c *Classifier) Classify(x []float64) (int, error) {
	d, err := c.Decide(x)
	if err != nil {
		return 0, err
	}
	return d.Label, nil
}

// Decide runs the Figure-3 algorithm on one test point and returns the
// full decision trace. A point with a NaN or ±Inf coordinate is rejected
// with udmerr.ErrBadData.
func (c *Classifier) Decide(x []float64) (*Decision, error) {
	if err := c.checkPoint(x); err != nil {
		return nil, err
	}
	t := c.tablesAt(x)
	defer c.tables.Put(t)
	dec := &Decision{}

	// Level 1: score every single dimension.
	var level []SubspaceScore
	var all []SubspaceScore
	var singles []int
	for j := 0; j < c.dims; j++ {
		dec.Candidates++
		if best, acc, ok := c.accuracyAll(t, []int{j}); ok && acc > c.opt.Threshold {
			s := SubspaceScore{Dims: []int{j}, Class: best, Accuracy: acc}
			level = append(level, s)
			all = append(all, s)
			singles = append(singles, j)
		}
	}
	if len(level) > 0 {
		dec.Levels = 1
	}

	// Roll-up: C_{i+1} = L_i ⋈ L_1, retaining subspaces whose best-class
	// accuracy clears the threshold. Candidate sets are deduplicated,
	// since the same (i+1)-set arises from several parents: each pair's
	// set and key are built in reused scratch, and only a new candidate
	// gets its own copies.
	size := 1
	seen := map[string]bool{}
	for len(level) > 0 && (c.opt.MaxSubspaceSize < 0 || size < c.opt.MaxSubspaceSize) {
		clear(seen)
		var next []SubspaceScore
		for _, s := range level {
			for _, j := range singles {
				if containsDim(s.Dims, j) {
					continue
				}
				t.dims = insertDim(t.dims[:0], s.Dims, j)
				t.key = appendDimsKey(t.key[:0], t.dims)
				if seen[string(t.key)] {
					continue
				}
				seen[string(t.key)] = true
				nd := append([]int(nil), t.dims...)
				dec.Candidates++
				if best, acc, ok := c.accuracyAll(t, nd); ok && acc > c.opt.Threshold {
					sc := SubspaceScore{Dims: nd, Class: best, Accuracy: acc}
					next = append(next, sc)
					all = append(all, sc)
				}
			}
		}
		level = next
		size++
		if len(level) > 0 {
			dec.Levels = size
		}
	}

	if len(all) == 0 {
		// No discriminatory subspace: fall back to the full-dimensional
		// dominant class, or the prior majority if even that underflows.
		dec.Fallback = true
		if best, _, ok := c.accuracyAll(t, allDims(c.dims)); ok {
			dec.Label = best
		} else {
			dec.Label = argmaxInt(c.classCount)
		}
		return dec, nil
	}

	// Greedy non-overlapping selection by accuracy, then majority vote of
	// the dominant classes (ties broken by total accuracy, then index).
	slices.SortStableFunc(all, func(a, b SubspaceScore) int { return cmp.Compare(b.Accuracy, a.Accuracy) })
	used := make([]bool, c.dims)
	votes := make([]int, len(c.class))
	weight := make([]float64, len(c.class))
	for _, s := range all {
		if overlaps(s.Dims, used) {
			continue
		}
		for _, j := range s.Dims {
			used[j] = true
		}
		dec.Chosen = append(dec.Chosen, s)
		votes[s.Class]++
		weight[s.Class] += s.Accuracy
		if c.opt.MaxSubspaces > 0 && len(dec.Chosen) >= c.opt.MaxSubspaces {
			break
		}
	}
	best := 0
	for l := 1; l < len(votes); l++ {
		if votes[l] > votes[best] || (votes[l] == votes[best] && weight[l] > weight[best]) {
			best = l
		}
	}
	dec.Label = best
	return dec, nil
}

func containsDim(dims []int, j int) bool {
	for _, d := range dims {
		if d == j {
			return true
		}
	}
	return false
}

// insertDim appends the ascending dims with j inserted to out.
func insertDim(out, dims []int, j int) []int {
	done := false
	for _, d := range dims {
		if !done && j < d {
			out = append(out, j)
			done = true
		}
		out = append(out, d)
	}
	if !done {
		out = append(out, j)
	}
	return out
}

// appendDimsKey appends the dedup key of dims to b.
func appendDimsKey(b []byte, dims []int) []byte {
	for _, d := range dims {
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ',')
	}
	return b
}

func overlaps(dims []int, used []bool) bool {
	for _, j := range dims {
		if used[j] {
			return true
		}
	}
	return false
}

func allDims(d int) []int {
	out := make([]int, d)
	for j := range out {
		out[j] = j
	}
	return out
}

func argmaxInt(v []int) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
