// Package density provides pluggable density-estimation backends
// behind one interface — the accuracy ladder the ROADMAP's raw-speed
// items build on. Four rungs, most to least exact:
//
//   - exact: the SoA engine of internal/kde over raw points or
//     micro-cluster pseudo-points, bit-identical to the per-query
//     reference path in its default configuration. O(N·d) per query.
//   - micro: the paper's own scalable rung (Aggarwal ICDE 2007,
//     Eq. 9–10) — KDE over error-based micro-cluster pseudo-points,
//     exact over the summary by Definition 1 additivity. O(q·d).
//   - grid: a low-dimensional cell estimator in the spirit of Wells &
//     Ting (arXiv:1707.00783): rows binned into cells carrying the
//     same additive (CF2x, EF2x, CF1x, n) statistics, evaluated as
//     moment-matched pseudo-points with a per-cell widening that
//     matches the within-cell second moment. O(occupied cells).
//   - hbe: a hashing-based estimator per Charikar & Siminelakis
//     (arXiv:1808.10530): LSH-guided importance sampling with an
//     (ε, δ) relative-error contract and an adaptive empirical-
//     Bernstein stopping rule. Sublinear per query on large N.
//
// Every backend satisfies kde.Batcher, so the canonical batch entry
// points (kde.DensityBatchOpts, the grid renderers, the serving layer)
// delegate whole batches to it transparently. Selection is driven by
// evalopt.Options.Backend via kde.Options.Eval; the default is exact,
// so callers that do not choose see byte-identical behavior.
package density

import (
	"context"
	"fmt"

	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// Info is a backend's self-description: which rung it is and what
// accuracy it promises. Serving handlers expose it in headers and the
// contract tests assert the advertised bound empirically.
type Info struct {
	// Backend names the rung.
	Backend evalopt.Backend
	// Exact reports bit-identity to the reference evaluation of the
	// data the backend was built from (raw rows or a summary).
	Exact bool
	// Epsilon is the advertised relative-error bound against the exact
	// engine over the same input (0 when Exact). For hbe the bound is
	// probabilistic (see Delta); for grid and for exact-with-pruning it
	// is deterministic.
	Epsilon float64
	// Delta is the per-query probability that Epsilon is exceeded
	// (0 for deterministic backends).
	Delta float64
	// Contract is a one-line human-readable statement of the above.
	Contract string
}

// String renders the info for logs and headers.
func (i Info) String() string {
	switch {
	case i.Exact:
		return fmt.Sprintf("%s: exact", i.Backend)
	case i.Delta > 0:
		return fmt.Sprintf("%s: rel err ≤ %g with prob ≥ %g", i.Backend, i.Epsilon, 1-i.Delta)
	default:
		return fmt.Sprintf("%s: rel err ≤ %g", i.Backend, i.Epsilon)
	}
}

// Backend is a pluggable density estimator: a kde.Estimator that
// evaluates whole batches itself (satisfying kde.Batcher, so the
// canonical batch APIs delegate to it), describes its own accuracy
// contract, and supports the serving layer's cheap per-request
// accuracy switch.
type Backend interface {
	kde.Estimator
	// DensityBatch evaluates every row of X over dims (nil = all
	// dimensions) under the backend's contract. Results are
	// deterministic for a fixed build seed and bit-identical for every
	// worker count.
	DensityBatch(ctx context.Context, X [][]float64, dims []int, workers int) ([]float64, error)
	// Info returns the backend's self-description.
	Info() Info
	// WithAccuracy returns a cheap view of the backend whose batch
	// evaluation runs under the given kernel accuracy mode. Backends
	// that manage their own approximation (hbe) reject non-exact modes
	// with udmerr.ErrBadOption.
	WithAccuracy(m kernel.AccuracyMode) (Backend, error)
}

// Backends satisfy the delegation interface of the canonical batch API.
var _ kde.Batcher = Backend(nil)

// New builds the backend selected by opt.Eval.Backend from raw rows.
// The default (empty) backend is exact: identical behavior, bit for
// bit, to kde.NewPoint.
func New(ds *dataset.Dataset, opt kde.Options) (Backend, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, err
	}
	switch opt.Eval.Backend {
	case evalopt.BackendDefault, evalopt.BackendExact:
		est, err := kde.NewPoint(ds, opt)
		if err != nil {
			return nil, err
		}
		return &kdeBackend{est: est, info: exactInfo(opt)}, nil
	case evalopt.BackendMicro:
		s := microcluster.Build(ds, opt.Eval.EffMicroClusters(), rng.New(opt.Eval.EffSeed()))
		est, err := kde.NewCluster(s, opt)
		if err != nil {
			return nil, err
		}
		return &kdeBackend{est: est, info: microInfo(opt)}, nil
	case evalopt.BackendGrid:
		return newGridFromRows(ds, opt)
	case evalopt.BackendHBE:
		return newHBEFromRows(ds, opt)
	}
	return nil, fmt.Errorf("density: unknown backend %q: %w", opt.Eval.Backend, udmerr.ErrBadOption)
}

// FromSummarizer builds the backend selected by opt.Eval.Backend from
// a micro-cluster summary — the serving layer's native input. Exact
// and micro coincide here (both evaluate the summary exactly); grid
// bins the summary's features into cells; hbe samples over the
// weighted pseudo-points.
func FromSummarizer(s *microcluster.Summarizer, opt kde.Options) (Backend, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, err
	}
	switch opt.Eval.Backend {
	case evalopt.BackendDefault, evalopt.BackendExact, evalopt.BackendMicro:
		// Over a summary the exact and micro rungs are one estimator;
		// only what they promise differs.
		est, err := kde.NewCluster(s, opt)
		if err != nil {
			return nil, err
		}
		info := exactInfo(opt)
		if opt.Eval.Backend == evalopt.BackendMicro {
			info = microInfo(opt)
		}
		return &kdeBackend{est: est, info: info}, nil
	case evalopt.BackendGrid:
		return newGridFromSummarizer(s, opt)
	case evalopt.BackendHBE:
		return newHBEFromSummarizer(s, opt)
	}
	return nil, fmt.Errorf("density: unknown backend %q: %w", opt.Eval.Backend, udmerr.ErrBadOption)
}

// kdeBackend adapts this repo's exact estimators (PointKDE, ClusterKDE
// over a hand-built or binned summary) to the Backend interface. The
// estimator is held as a field, not embedded, so the deprecated batch
// method set of the kde types is not promoted onto the backend.
type kdeBackend struct {
	est  kde.Estimator // *kde.PointKDE or *kde.ClusterKDE
	info Info
}

func (b *kdeBackend) Density(x []float64) float64 { return b.est.Density(x) }
func (b *kdeBackend) DensitySub(x []float64, dims []int) float64 {
	return b.est.DensitySub(x, dims)
}
func (b *kdeBackend) Dims() int  { return b.est.Dims() }
func (b *kdeBackend) Count() int { return b.est.Count() }
func (b *kdeBackend) Info() Info { return b.info }

// DensityBatch hands the rows to the SoA engine through the canonical
// batch entry point. The inner estimator is a kde type, never a
// Batcher, so there is no re-delegation.
func (b *kdeBackend) DensityBatch(ctx context.Context, X [][]float64, dims []int, workers int) ([]float64, error) {
	return kde.DensityBatchOpts(b.est, X, dims, kde.BatchOptions{Ctx: ctx, Workers: workers})
}

// WithAccuracy returns a view over the inner estimator's cheap
// accuracy-switched copy, sharing all data with the receiver.
func (b *kdeBackend) WithAccuracy(m kernel.AccuracyMode) (Backend, error) {
	est, err := switchAccuracy(b.est, m)
	if err != nil {
		return nil, err
	}
	c := *b
	c.est = est
	if !m.IsExact() {
		c.info.Exact = false
		c.info.Epsilon += m.Epsilon()
		c.info.Contract += fmt.Sprintf("; kernel surrogate rel err ≤ %g", m.Epsilon())
	}
	return &c, nil
}

// switchAccuracy is kde's WithAccuracy over the Estimator interface.
func switchAccuracy(est kde.Estimator, m kernel.AccuracyMode) (kde.Estimator, error) {
	switch k := est.(type) {
	case *kde.PointKDE:
		return k.WithAccuracy(m)
	case *kde.ClusterKDE:
		return k.WithAccuracy(m)
	}
	if m.IsExact() {
		return est, nil
	}
	return nil, fmt.Errorf("density: estimator %T cannot switch accuracy: %w", est, udmerr.ErrBadOption)
}

// exactInfo describes the exact rung under opt: bit-identity in the
// default configuration, a deterministic relative bound when pruning
// or the kernel surrogate is enabled.
func exactInfo(opt kde.Options) Info {
	eps := effPrune(opt) + effAccuracy(opt).Epsilon()
	info := Info{Backend: evalopt.BackendExact, Exact: eps == 0, Epsilon: eps}
	if info.Exact {
		info.Contract = "bit-identical to the reference per-query evaluation"
	} else {
		info.Contract = fmt.Sprintf("deterministic rel err ≤ %g (pruning + kernel surrogate)", eps)
	}
	return info
}

// microInfo describes the micro rung: exact over its summary, with a
// data-dependent (unbounded a priori) summarization deviation.
func microInfo(opt kde.Options) Info {
	eps := effPrune(opt) + effAccuracy(opt).Epsilon()
	return Info{
		Backend: evalopt.BackendMicro,
		Exact:   false,
		Epsilon: eps,
		Contract: "exact over its micro-cluster summary (Definition 1 additivity); " +
			"summary-vs-raw deviation is data dependent",
	}
}

// effPrune and effAccuracy resolve the engine knobs the way
// kde.Options normalization does: Eval wins when set.
func effPrune(opt kde.Options) float64 {
	if opt.Eval.Prune != 0 {
		return opt.Eval.Prune
	}
	return opt.Prune
}

func effAccuracy(opt kde.Options) kernel.AccuracyMode {
	if !opt.Eval.Accuracy.IsExact() {
		return opt.Eval.Accuracy
	}
	return opt.Accuracy
}
