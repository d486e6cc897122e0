// Package density builds the rungs of the density-estimation accuracy
// ladder from one selector, evalopt.Options.Backend (carried on
// kde.Options.Eval). Three rungs, most to least exact:
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
//
// Every rung is a kde estimator — a *kde.PointKDE for exact over rows,
// a *kde.ClusterKDE otherwise — returned with an Info describing what
// it promises. The canonical batch entry points (kde.DensityBatchOpts,
// the grid renderers, the serving layer) therefore run every rung on
// the SoA engine, with pruning and the kernel accuracy mode applied.
// The default backend is exact, so callers that do not choose see
// byte-identical behavior.
package density

import (
	"fmt"

	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// Info is a rung's self-description: which rung it is and what
// accuracy it promises. udmkde prints it, and the contract tests
// assert the advertised bound empirically.
type Info struct {
	// Backend names the rung.
	Backend evalopt.Backend
	// Exact reports bit-identity to the reference evaluation of the
	// data the rung was built from (raw rows or a summary).
	Exact bool
	// Epsilon is the advertised deterministic relative-error bound
	// against the exact engine over the same input (0 when Exact).
	Epsilon float64
	// Contract is a one-line human-readable statement of the above.
	Contract string
}

// String renders the info for logs.
func (i Info) String() string {
	if i.Exact {
		return fmt.Sprintf("%s: exact", i.Backend)
	}
	return fmt.Sprintf("%s: rel err ≤ %g", i.Backend, i.Epsilon)
}

// New builds the rung selected by opt.Eval.Backend from raw rows: a
// *kde.PointKDE for exact, a *kde.ClusterKDE for micro and grid. The
// default (empty) backend is exact: identical behavior, bit for bit,
// to kde.NewPoint.
func New(ds *dataset.Dataset, opt kde.Options) (kde.Estimator, Info, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, Info{}, err
	}
	switch opt.Eval.Backend {
	case evalopt.BackendDefault, evalopt.BackendExact:
		est, err := kde.NewPoint(ds, opt)
		if err != nil {
			return nil, Info{}, err
		}
		return est, exactInfo(opt), nil
	case evalopt.BackendMicro:
		s := microcluster.Build(ds, opt.Eval.EffMicroClusters(), rng.New(opt.Eval.EffSeed()))
		est, err := kde.NewCluster(s, opt)
		if err != nil {
			return nil, Info{}, err
		}
		return est, microInfo(opt), nil
	case evalopt.BackendGrid:
		est, info, err := newGridFromRows(ds, opt)
		if err != nil {
			return nil, Info{}, err
		}
		return est, info, nil
	}
	return nil, Info{}, fmt.Errorf("density: unknown backend %q: %w", opt.Eval.Backend, udmerr.ErrBadOption)
}

// FromSummarizer builds the rung selected by opt.Eval.Backend from a
// micro-cluster summary — the serving layer's native input. Exact and
// micro coincide here (both evaluate the summary exactly); grid bins
// the summary's features into cells.
func FromSummarizer(s *microcluster.Summarizer, opt kde.Options) (*kde.ClusterKDE, Info, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, Info{}, err
	}
	switch opt.Eval.Backend {
	case evalopt.BackendDefault, evalopt.BackendExact, evalopt.BackendMicro:
		// Over a summary the exact and micro rungs are one estimator;
		// only what they promise differs.
		est, err := kde.NewCluster(s, opt)
		if err != nil {
			return nil, Info{}, err
		}
		info := exactInfo(opt)
		if opt.Eval.Backend == evalopt.BackendMicro {
			info = microInfo(opt)
		}
		return est, info, nil
	case evalopt.BackendGrid:
		return newGridFromSummarizer(s, opt)
	}
	return nil, Info{}, fmt.Errorf("density: unknown backend %q: %w", opt.Eval.Backend, udmerr.ErrBadOption)
}

// exactInfo describes the exact rung under opt: bit-identity in the
// default configuration, a deterministic relative bound when pruning
// or the kernel surrogate is enabled.
func exactInfo(opt kde.Options) Info {
	eps := opt.Eval.Prune + opt.Eval.Accuracy.Epsilon()
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
	eps := opt.Eval.Prune + opt.Eval.Accuracy.Epsilon()
	return Info{
		Backend: evalopt.BackendMicro,
		Exact:   false,
		Epsilon: eps,
		Contract: "exact over its micro-cluster summary (Definition 1 additivity); " +
			"summary-vs-raw deviation is data dependent",
	}
}
