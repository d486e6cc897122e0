// Package evalopt holds the evaluation options shared by every layer
// that evaluates densities: the kde estimators, the density backend
// ladder (internal/density), the udm facade, and the two user-facing
// surfaces (cmd/udmkde's -eval flag and cmd/udmserve's -eval flag).
// Options is the one spelling of each knob, with one textual form, so a
// configuration can be logged, compared and round-tripped.
//
// The package sits below internal/kde on purpose: kde.Options carries
// an Options in its Eval field, so estimator construction consumes the
// same value the CLIs parse.
package evalopt

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"udm/internal/kernel"
	"udm/internal/udmerr"
)

// Backend names one rung of the density-estimation accuracy ladder.
// The zero value selects the default (exact) backend.
type Backend string

const (
	// BackendDefault is the unset value: callers that do not choose get
	// BackendExact behavior, bit-identical to the pre-backend APIs.
	BackendDefault Backend = ""
	// BackendExact is the exact SoA engine over raw points or
	// micro-cluster pseudo-points (internal/kde): O(N·d) per query,
	// bit-identical to the per-query reference loop in its default
	// configuration.
	BackendExact Backend = "exact"
	// BackendGrid is the low-dimensional grid estimator: cells with
	// aggregated (CF2x, EF2x, CF1x, n) statistics per Wells & Ting
	// (arXiv:1707.00783), evaluated as moment-matched pseudo-points.
	// O(occupied cells) per query.
	BackendGrid Backend = "grid"
	// BackendMicro evaluates over error-based micro-cluster
	// pseudo-points (the paper's own Definition 1 ladder rung): exact
	// over the summary, O(q) per query.
	BackendMicro Backend = "micro"
)

// ParseBackend maps the wire form of a backend name to its value. The
// empty string is BackendDefault. Unknown names return ErrBadOption.
func ParseBackend(s string) (Backend, error) {
	switch Backend(strings.ToLower(strings.TrimSpace(s))) {
	case BackendDefault:
		return BackendDefault, nil
	case BackendExact:
		return BackendExact, nil
	case BackendGrid:
		return BackendGrid, nil
	case BackendMicro:
		return BackendMicro, nil
	}
	return BackendDefault, fmt.Errorf("evalopt: unknown backend %q (want exact, grid or micro): %w", s, udmerr.ErrBadOption)
}

// Options is the set of evaluation knobs. The zero value is the exact
// default: exact backend, no pruning, exact kernels. Every field has a
// documented zero-value meaning.
type Options struct {
	// Backend selects the density estimator rung. Empty means exact.
	Backend Backend
	// Epsilon is the grid backend's relative-error budget: it sizes
	// its cells so its advertised bound is ≤ Epsilon. 0 means
	// DefaultEpsilon. Exact and micro backends ignore it.
	Epsilon float64
	// Prune is the far-field truncation tolerance of the kde batch
	// engine: subtrees of kernel centers whose total possible
	// contribution is below Prune times the density are skipped, so
	// every batch result is within relative error Prune. 0 disables,
	// keeping batches bit-identical to the per-query methods, which
	// never prune.
	Prune float64
	// Accuracy selects exact kernel evaluation (the zero value) or the
	// bounded-error fast-exponential surrogate (kernel.Approx(ε)) on
	// the kde batch paths; the per-query methods stay exact.
	Accuracy kernel.AccuracyMode
	// Seed drives the micro backend's summarization order. 0 means
	// seed 1.
	Seed int64
	// GridCells overrides the grid backend's per-dimension resolution
	// (0 = derived from Epsilon, capped at MaxGridCells).
	GridCells int
	// MicroClusters overrides the micro backend's cluster budget q
	// (0 = DefaultMicroClusters).
	MicroClusters int
}

// Defaults for zero-valued fields, resolved by the backends.
const (
	// DefaultEpsilon is the grid backend's relative-error budget when
	// Options.Epsilon is 0.
	DefaultEpsilon = 0.1
	// DefaultMicroClusters is the micro backend's cluster budget when
	// Options.MicroClusters is 0 — the paper's headline configuration,
	// matching core.DefaultMicroClusters.
	DefaultMicroClusters = 140
	// MaxGridCells caps the grid backend's per-dimension resolution:
	// beyond this an Epsilon-derived sizing stops refining and the
	// backend advertises the bound it can actually achieve.
	MaxGridCells = 4096
	// MaxGridDims is the highest dimensionality the grid backend
	// accepts; above it cell counts explode and micro is the scalable
	// rung.
	MaxGridDims = 3
	// DefaultSeed seeds the micro backend when Options.Seed is 0.
	DefaultSeed = 1
)

// EffEpsilon resolves the epsilon budget with its default.
func (o Options) EffEpsilon() float64 {
	if o.Epsilon == 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// EffSeed resolves the randomization seed with its default.
func (o Options) EffSeed() int64 {
	if o.Seed == 0 {
		return DefaultSeed
	}
	return o.Seed
}

// EffMicroClusters resolves the micro-cluster budget with its default.
func (o Options) EffMicroClusters() int {
	if o.MicroClusters == 0 {
		return DefaultMicroClusters
	}
	return o.MicroClusters
}

// Validate checks every field against its documented domain, wrapping
// udmerr.ErrBadOption on violations.
func (o Options) Validate() error {
	if _, err := ParseBackend(string(o.Backend)); err != nil {
		return err
	}
	if o.Epsilon != 0 && !(o.Epsilon > 0 && o.Epsilon < math.Inf(1)) {
		return fmt.Errorf("evalopt: epsilon %v must be a positive finite value: %w", o.Epsilon, udmerr.ErrBadOption)
	}
	if o.Prune != 0 && (!(o.Prune > 0) || math.IsInf(o.Prune, 0)) {
		return fmt.Errorf("evalopt: prune tolerance %v must be a finite value in [0, inf): %w", o.Prune, udmerr.ErrBadOption)
	}
	if !o.Accuracy.Valid() {
		return fmt.Errorf("evalopt: invalid accuracy %v: %w", o.Accuracy, udmerr.ErrBadOption)
	}
	if o.GridCells < 0 {
		return fmt.Errorf("evalopt: grid cells %d must be non-negative: %w", o.GridCells, udmerr.ErrBadOption)
	}
	if o.GridCells > MaxGridCells {
		return fmt.Errorf("evalopt: grid cells %d above cap %d: %w", o.GridCells, MaxGridCells, udmerr.ErrBadOption)
	}
	if o.MicroClusters < 0 {
		return fmt.Errorf("evalopt: micro-cluster budget %d must be non-negative: %w", o.MicroClusters, udmerr.ErrBadOption)
	}
	return nil
}

// String renders the canonical wire form: only non-default fields, in
// a fixed key order, so equal configurations render equal strings. The
// zero Options renders "" (everything default).
func (o Options) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if o.Backend != BackendDefault {
		add("backend", string(o.Backend))
	}
	if o.Epsilon != 0 {
		add("epsilon", strconv.FormatFloat(o.Epsilon, 'g', -1, 64))
	}
	if o.Prune != 0 {
		add("prune", strconv.FormatFloat(o.Prune, 'g', -1, 64))
	}
	if !o.Accuracy.IsExact() {
		add("accuracy", o.Accuracy.String())
	}
	if o.Seed != 0 {
		add("seed", strconv.FormatInt(o.Seed, 10))
	}
	if o.GridCells != 0 {
		add("cells", strconv.Itoa(o.GridCells))
	}
	if o.MicroClusters != 0 {
		add("q", strconv.Itoa(o.MicroClusters))
	}
	return strings.Join(parts, ",")
}

// Parse reads the textual form of the udmkde and udmserve -eval flags:
// comma-separated key=value pairs with keys
//
//	backend   exact | grid | micro
//	epsilon   grid-backend relative-error budget (> 0; alias eps)
//	prune     exact-engine far-field truncation tolerance (≥ 0)
//	accuracy  exact | approx | approx(ε)  (kernel surrogate mode)
//	seed      micro-backend summarization seed (integer)
//	cells     grid backend per-dimension resolution (positive integer)
//	q         micro backend cluster budget (positive integer)
//
// A bare backend name ("grid") is accepted as shorthand for
// "backend=grid". Keys may appear in any order; later keys win. The
// empty string parses to the zero Options. Unknown keys, malformed
// values, and out-of-domain fields return errors wrapping
// udmerr.ErrBadOption.
func Parse(s string) (Options, error) {
	var o Options
	s = strings.TrimSpace(s)
	if s == "" {
		return o, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			// Bare backend-name shorthand.
			b, err := ParseBackend(field)
			if err != nil {
				return Options{}, fmt.Errorf("evalopt: %q is neither key=value nor a backend name: %w", field, udmerr.ErrBadOption)
			}
			o.Backend = b
			continue
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "backend":
			o.Backend, err = ParseBackend(val)
		case "epsilon", "eps":
			o.Epsilon, err = parseFloat(key, val)
		case "prune":
			o.Prune, err = parseFloat(key, val)
		case "accuracy":
			o.Accuracy, err = parseAccuracy(val)
		case "seed":
			var v int64
			v, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("evalopt: seed %q is not an integer: %w", val, udmerr.ErrBadOption)
			}
			o.Seed = v
		case "cells":
			o.GridCells, err = parseInt(key, val)
		case "q":
			o.MicroClusters, err = parseInt(key, val)
		default:
			return Options{}, fmt.Errorf("evalopt: unknown key %q (known: %s): %w", key, strings.Join(keys, ", "), udmerr.ErrBadOption)
		}
		if err != nil {
			return Options{}, err
		}
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

func parseFloat(key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("evalopt: %s %q is not a number: %w", key, val, udmerr.ErrBadOption)
	}
	return v, nil
}

func parseInt(key, val string) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("evalopt: %s %q is not an integer: %w", key, val, udmerr.ErrBadOption)
	}
	return v, nil
}

// parseAccuracy reads the accuracy value forms "exact", "approx", and
// "approx(ε)", reusing kernel.ParseAccuracy for the name/budget split.
func parseAccuracy(val string) (kernel.AccuracyMode, error) {
	name := strings.ToLower(val)
	eps := 0.0
	if inner, found := strings.CutPrefix(name, "approx("); found {
		inner, ok := strings.CutSuffix(inner, ")")
		if !ok {
			return kernel.Exact(), fmt.Errorf("evalopt: malformed accuracy %q (want approx(ε)): %w", val, udmerr.ErrBadOption)
		}
		v, err := strconv.ParseFloat(inner, 64)
		if err != nil {
			return kernel.Exact(), fmt.Errorf("evalopt: accuracy budget %q is not a number: %w", inner, udmerr.ErrBadOption)
		}
		name, eps = "approx", v
	}
	m, ok := kernel.ParseAccuracy(name, eps)
	if !ok {
		return kernel.Exact(), fmt.Errorf("evalopt: accuracy %q with epsilon %v is not a valid mode (want exact or approx(ε>0)): %w", val, eps, udmerr.ErrBadOption)
	}
	return m, nil
}

// keys lists every key Parse accepts, aliases included, sorted.
var keys = []string{"accuracy", "backend", "cells", "eps", "epsilon", "prune", "q", "seed"}

// Keys returns every key Parse accepts, aliases included, sorted.
func Keys() []string { return slices.Clone(keys) }
