// Package server is the HTTP serving layer over the density-transform
// library: a named model registry, JSON endpoints for classification,
// density evaluation, outlier scoring and stream ingestion, micro-
// batching of concurrent single-point requests onto the parallel batch
// engine, a bounded LRU density cache, per-request timeouts, load
// shedding, and graceful shutdown with stream checkpointing. See
// DESIGN.md ("Serving layer") for the architecture.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"udm/internal/core"
	"udm/internal/density"
	"udm/internal/evalopt"
	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/stream"
	"udm/internal/udmerr"
)

// Kind names the artifact type behind a served model.
type Kind string

const (
	// KindTransform serves a trained core.Transform: classify, density
	// and outliers against the global summary.
	KindTransform Kind = "transform"
	// KindSummarizer serves a standalone micro-cluster summary: density
	// and outliers.
	KindSummarizer Kind = "summarizer"
	// KindStream serves a live stream.Engine: ingest plus density and
	// outliers against the evolving summary.
	KindStream Kind = "stream"
)

// Model is one named, servable artifact. All public methods are safe
// for concurrent use: classifiers and estimators are read-only after
// construction, and the mutable stream path (ingest + lazy estimator
// rebuild) is guarded by mu / the engine's own lock.
type Model struct {
	name   string
	kind   Kind
	dims   int
	kdeOpt kde.Options

	clf *core.Classifier // transform kind only

	eng            *stream.Engine // stream kind only
	checkpointPath string         // where Checkpoint saves the engine

	mu         sync.Mutex
	est        *kde.ClusterKDE
	sum        *microcluster.Summarizer
	estVersion uint64 // engine row count the estimator was built at

	// grid lazily caches the grid rung over the current summary,
	// rebuilt whenever ingestion advances the model version. The
	// exact and micro rungs are est itself.
	grid        *kde.ClusterKDE
	gridVersion uint64

	// partial caches the shard-side estimator of the distributed
	// density protocol: the current summary under coordinator-supplied
	// explicit bandwidths, rebuilt when ingestion advances the version
	// or a fan-out arrives with different bandwidths.
	partial        *kde.ClusterKDE
	partialVersion uint64
	partialKey     string
}

// NewTransformModel wraps a trained transform: the classifier serves
// /classify and a ClusterKDE over the global summary serves /density
// and /outliers. clfOpt.KDE must leave the backend and accuracy to the
// requests (see checkServingEval).
func NewTransformModel(name string, t *core.Transform, clfOpt core.ClassifierOptions) (*Model, error) {
	if err := checkServingEval(name, clfOpt.KDE); err != nil {
		return nil, err
	}
	clf, err := core.NewClassifier(t, clfOpt)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: %w", name, err)
	}
	est, err := kde.NewCluster(t.Global(), clfOpt.KDE)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: %w", name, err)
	}
	return &Model{
		name:   name,
		kind:   KindTransform,
		dims:   t.Dims(),
		kdeOpt: clfOpt.KDE,
		clf:    clf,
		est:    est,
		sum:    t.Global(),
	}, nil
}

// NewSummarizerModel wraps a standalone micro-cluster summary for
// density evaluation and outlier scoring. opt must leave the backend
// and accuracy to the requests (see checkServingEval).
func NewSummarizerModel(name string, s *microcluster.Summarizer, opt kde.Options) (*Model, error) {
	if err := checkServingEval(name, opt); err != nil {
		return nil, err
	}
	est, err := kde.NewCluster(s, opt)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: %w", name, err)
	}
	return &Model{
		name:   name,
		kind:   KindSummarizer,
		dims:   s.Dims(),
		kdeOpt: opt,
		est:    est,
		sum:    s,
	}, nil
}

// NewStreamModel wraps a live stream engine. checkpointPath, when
// non-empty, is where Checkpoint (and graceful shutdown) writes the
// engine state. The density estimator is built lazily and rebuilt
// whenever ingestion has advanced the engine since the last build.
// opt must leave the backend and accuracy to the requests (see
// checkServingEval).
func NewStreamModel(name string, eng *stream.Engine, opt kde.Options, checkpointPath string) (*Model, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: model %q: nil stream engine", name)
	}
	if err := checkServingEval(name, opt); err != nil {
		return nil, err
	}
	return &Model{
		name:           name,
		kind:           KindStream,
		dims:           eng.Dims(),
		kdeOpt:         opt,
		eng:            eng,
		checkpointPath: checkpointPath,
	}, nil
}

// checkServingEval refuses construction options that fix what each
// density request picks: the backend and the accuracy mode are the
// request's "backend" and "accuracy" fields, and the exact-mode paths
// (coalescer, density cache, X-UDM-Accuracy echo) assume the model's
// own estimator is exact. It also refuses the micro rung's sizing keys
// (q and seed), which only shape a summary built from raw rows: every
// served model is already a summary. Prune and the grid sizing keys
// (epsilon, cells) stay a model-wide construction policy.
func checkServingEval(name string, opt kde.Options) error {
	if opt.Eval.Backend != evalopt.BackendDefault {
		return fmt.Errorf("server: model %q: backend %q is chosen per request by the density request's \"backend\" field, not at model construction: %w",
			name, opt.Eval.Backend, udmerr.ErrBadOption)
	}
	if !opt.Eval.Accuracy.IsExact() {
		return fmt.Errorf("server: model %q: accuracy %v is chosen per request by the density request's \"accuracy\" field, not at model construction: %w",
			name, opt.Eval.Accuracy, udmerr.ErrBadOption)
	}
	if opt.Eval.MicroClusters != 0 || opt.Eval.Seed != 0 {
		return fmt.Errorf("server: model %q: the \"q\" and \"seed\" keys (q=%d, seed=%d) size a micro-cluster summary built from raw rows; a served model is already a summary: %w",
			name, opt.Eval.MicroClusters, opt.Eval.Seed, udmerr.ErrBadOption)
	}
	return nil
}

// Name returns the registry name.
func (m *Model) Name() string { return m.name }

// Kind returns the artifact kind.
func (m *Model) Kind() Kind { return m.kind }

// Dims returns the model dimensionality.
func (m *Model) Dims() int { return m.dims }

// Classifier returns the classifier, or nil for non-transform kinds.
func (m *Model) Classifier() *core.Classifier { return m.clf }

// Engine returns the live stream engine, or nil for non-stream kinds.
func (m *Model) Engine() *stream.Engine { return m.eng }

// version is the cache-invalidation token: static models are always
// version 0; a stream model's version is its ingested row count, so
// every ingested row retires cached densities.
func (m *Model) version() uint64 {
	if m.eng == nil {
		return 0
	}
	return uint64(m.eng.Count())
}

// estimator returns the current density estimator and the model
// version it reflects, rebuilding a stream model's estimator when
// ingestion has advanced past the cached build. Static models return
// their construction-time estimator unchanged.
func (m *Model) estimator() (*kde.ClusterKDE, uint64, error) {
	if m.eng == nil {
		return m.est, 0, nil
	}
	v := m.version()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.est != nil && m.estVersion == v {
		return m.est, v, nil
	}
	s, err := m.eng.Summarizer()
	if err != nil {
		return nil, 0, fmt.Errorf("server: model %q: %w", m.name, err)
	}
	est, err := kde.NewCluster(s, m.kdeOpt)
	if err != nil {
		return nil, 0, fmt.Errorf("server: model %q: %w", m.name, err)
	}
	m.est, m.sum, m.estVersion = est, s, v
	return est, v, nil
}

// estimatorAt returns the current estimator with the per-request
// accuracy mode applied. Exact requests share the cached estimator
// unchanged; approximate requests get a shallow copy that shares the
// underlying columns, spatial index, and scratch pool, so the override
// costs one small allocation, not a rebuild.
func (m *Model) estimatorAt(acc kernel.AccuracyMode) (*kde.ClusterKDE, error) {
	est, _, err := m.estimator()
	if err != nil {
		return nil, err
	}
	if acc.IsExact() {
		return est, nil
	}
	est, err = est.WithAccuracy(acc)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: %w", m.name, err)
	}
	return est, nil
}

// backendAt returns an estimator for the requested (already parsed)
// density backend and accuracy mode. Over a summary the exact and micro
// rungs are one estimator, so the default, exact and micro backends all
// take the shared ClusterKDE — bit-identical answers — while the grid
// rung is built lazily over the current summary and cached until
// ingestion advances the model. The accuracy switch is applied last,
// as a cheap per-request view.
func (m *Model) backendAt(bk evalopt.Backend, acc kernel.AccuracyMode) (*kde.ClusterKDE, error) {
	if bk != evalopt.BackendGrid {
		return m.estimatorAt(acc)
	}
	// Refresh the summary (and version) first; stream models rebuild it
	// here when ingestion has advanced.
	_, v, err := m.estimator()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.grid == nil || m.gridVersion != v {
		opt := m.kdeOpt
		opt.Eval.Backend = evalopt.BackendGrid
		grid, _, err := density.FromSummarizer(m.sum, opt)
		if err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("server: model %q: %w", m.name, err)
		}
		m.grid, m.gridVersion = grid, v
	}
	grid := m.grid
	m.mu.Unlock()
	if acc.IsExact() {
		return grid, nil
	}
	grid, err = grid.WithAccuracy(acc)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: %w", m.name, err)
	}
	return grid, nil
}

// SummarySnapshot returns the model's current micro-cluster summary
// and the version it reflects — the coordinator-side entry point of
// the distributed density protocol (GET .../summary). Static models
// return their construction-time summary at version 0; stream models
// return a deep snapshot that later ingestion cannot mutate. The
// returned summarizer must be treated as read-only.
func (m *Model) SummarySnapshot() (*microcluster.Summarizer, uint64, error) {
	if m.eng == nil {
		return m.sum, 0, nil
	}
	if _, _, err := m.estimator(); err != nil {
		return nil, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum, m.estVersion, nil
}

// partialEstimator returns an estimator over the current summary with
// the coordinator's explicit bandwidths in place of the local
// bandwidth rule, plus the version it reflects — the shard-side half
// of the distributed density protocol. The last build is cached per
// (version, bandwidths), so steady-state fan-outs hit a ready
// estimator.
func (m *Model) partialEstimator(h []float64) (*kde.ClusterKDE, uint64, error) {
	sum, v, err := m.SummarySnapshot()
	if err != nil {
		return nil, 0, err
	}
	key := bandwidthKey(h)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.partial != nil && m.partialVersion == v && m.partialKey == key {
		return m.partial, v, nil
	}
	opt := m.kdeOpt
	opt.Bandwidths, opt.Eval.Prune = h, 0 // the terms never walk a tree
	est, err := kde.NewCluster(sum, opt)
	if err != nil {
		return nil, 0, fmt.Errorf("server: model %q: %w", m.name, err)
	}
	m.partial, m.partialVersion, m.partialKey = est, v, key
	return est, v, nil
}

// bandwidthKey folds explicit bandwidths into a cache key on their
// exact bits.
func bandwidthKey(h []float64) string {
	b := make([]byte, 0, 8*len(h))
	for _, v := range h {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// summarizer returns the micro-cluster summary backing /outliers,
// refreshing it for stream models alongside the estimator.
func (m *Model) summarizer() (*microcluster.Summarizer, error) {
	if m.eng == nil {
		return m.sum, nil
	}
	if _, _, err := m.estimator(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum, nil
}

// modelCheckpointFault guards the checkpoint writer: error plans fail
// the write, truncation plans tear the artifact.
var modelCheckpointFault = faultinject.NewPoint("server.checkpoint.write")

// Checkpoint writes the stream engine to its checkpoint path. It is a
// no-op for non-stream models and stream models without a path.
func (m *Model) Checkpoint() error {
	if m.eng == nil || m.checkpointPath == "" {
		return nil
	}
	f, err := os.Create(m.checkpointPath)
	if err != nil {
		return fmt.Errorf("server: checkpoint %q: %w", m.name, err)
	}
	defer f.Close()
	// The fault point wraps the file, so error plans fail the write
	// outright and truncation plans leave a torn artifact on disk — the
	// recovery path LoadEngine must reject.
	w, err := modelCheckpointFault.Writer(nil, f)
	if err != nil {
		return fmt.Errorf("server: checkpoint %q: %w", m.name, err)
	}
	if err := m.eng.Save(w); err != nil {
		return fmt.Errorf("server: checkpoint %q: %w", m.name, err)
	}
	return f.Close()
}

// Points returns the number of summarized source points resident in
// the model — the unit the per-tenant resident-point quota is charged
// in. Stream models report their ingested row count; static models the
// point count their summary was built from.
func (m *Model) Points() int {
	if m.eng != nil {
		return m.eng.Count()
	}
	if m.sum != nil {
		return m.sum.Count()
	}
	return 0
}

// DefaultTenant is the namespace the un-prefixed /v1/models/... routes
// alias to. Pre-tenancy clients land here without changing a byte.
const DefaultTenant = "default"

// Hot-swap lifecycle errors. They are registry-level conditions, not
// library sentinels: the handlers map them to 409s with stable codes.
var (
	// ErrNoStaged: promote was called on a slot with nothing staged.
	ErrNoStaged = errors.New("server: no staged version to promote")
	// ErrNoPrevious: rollback was called on a slot that never swapped.
	ErrNoPrevious = errors.New("server: no previous version to roll back to")
)

// servedModel is one published (model, generation) pair. It is the
// unit of atomic hot-swap: readers load the pair with a single atomic
// pointer read, so a request can never observe one version's model
// with another version's generation — the property the version-echo
// headers and the swap atomicity test rely on.
type servedModel struct {
	m      *Model
	tenant string
	gen    uint64 // activation generation, unique per slot, starts at 1
}

// Model returns the published model.
func (sm *servedModel) Model() *Model { return sm.m }

// Tenant returns the namespace the model is published in.
func (sm *servedModel) Tenant() string { return sm.tenant }

// Gen returns the activation generation (echoed as
// X-UDM-Model-Version and folded into density-cache keys).
func (sm *servedModel) Gen() uint64 { return sm.gen }

// slot is one (tenant, name) registration: the atomically-published
// active version plus the staged and previous versions the hot-swap
// state machine moves between. mu serializes the writers (stage,
// promote, rollback); readers never take it.
type slot struct {
	active atomic.Pointer[servedModel]

	mu      sync.Mutex
	staged  *Model
	prev    *servedModel // last retired active; rollback target
	lastGen uint64
}

// Registry is the tenant → name → model table the server routes on.
// Lookups take a read lock on the two-level map only; the model behind
// a name is resolved with one atomic load, so a promote concurrent
// with a million in-flight reads is still a single pointer swing.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]map[string]*slot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]map[string]*slot)}
}

// ValidIdent reports whether s is usable as a tenant or model name:
// 1–64 bytes of [A-Za-z0-9._-], excluding the path-traversal names.
// Keeping NUL and '/' out of the charset is what lets cache and dedup
// keys join tenant and name with separators unambiguously.
func ValidIdent(s string) bool {
	if len(s) == 0 || len(s) > 64 || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// slotFor returns the slot for (tenant, name), creating it when create
// is set.
func (r *Registry) slotFor(tenant, name string, create bool) *slot {
	if create {
		r.mu.Lock()
		defer r.mu.Unlock()
		ns := r.tenants[tenant]
		if ns == nil {
			ns = make(map[string]*slot)
			r.tenants[tenant] = ns
		}
		sl := ns[name]
		if sl == nil {
			sl = &slot{}
			ns[name] = sl
		}
		return sl
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[tenant][name]
}

// Add registers a model in the default tenant. Duplicate names are an
// error.
func (r *Registry) Add(m *Model) error {
	return r.AddTenant(DefaultTenant, m)
}

// AddTenant registers a model in tenant's namespace as its immediately
// active (generation 1) version. Duplicates are an error; use Stage +
// Promote to replace a live model.
func (r *Registry) AddTenant(tenant string, m *Model) error {
	if !ValidIdent(tenant) {
		return fmt.Errorf("server: invalid tenant id %q", tenant)
	}
	if !ValidIdent(m.name) {
		return fmt.Errorf("server: invalid model name %q", m.name)
	}
	sl := r.slotFor(tenant, m.name, true)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.active.Load() != nil || sl.staged != nil {
		return fmt.Errorf("server: duplicate model name %q in tenant %q", m.name, tenant)
	}
	sl.lastGen = 1
	sl.active.Store(&servedModel{m: m, tenant: tenant, gen: 1})
	return nil
}

// Get looks a model up in the default tenant.
func (r *Registry) Get(name string) (*Model, bool) {
	sm, ok := r.Resolve(DefaultTenant, name)
	if !ok {
		return nil, false
	}
	return sm.m, true
}

// Resolve returns the active (model, generation) pair for (tenant,
// name) with a single atomic load — the request-path lookup.
func (r *Registry) Resolve(tenant, name string) (*servedModel, bool) {
	sl := r.slotFor(tenant, name, false)
	if sl == nil {
		return nil, false
	}
	sm := sl.active.Load()
	if sm == nil {
		return nil, false // staged-only slot: not routable until promoted
	}
	return sm, true
}

// Stage installs m as the slot's staged (next) version without
// touching the active one. Staging over an un-promoted staged version
// replaces it. A slot with no active version may be staged into — a
// brand-new model deploys as stage + promote.
func (r *Registry) Stage(tenant, name string, m *Model) error {
	if !ValidIdent(tenant) {
		return fmt.Errorf("server: invalid tenant id %q", tenant)
	}
	if !ValidIdent(name) {
		return fmt.Errorf("server: invalid model name %q", name)
	}
	if m.name != name {
		return fmt.Errorf("server: staging model named %q into slot %q", m.name, name)
	}
	sl := r.slotFor(tenant, name, true)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.staged = m
	return nil
}

// Promote atomically publishes the staged version as active, retiring
// the current active version as the rollback target. It returns the
// newly published pair and the retired one (nil on first promote).
// In-flight requests that resolved before the swap keep the pair they
// loaded — they finish on their version, new requests get the new one,
// and nobody observes a mix.
func (r *Registry) Promote(tenant, name string) (now, old *servedModel, err error) {
	sl := r.slotFor(tenant, name, false)
	if sl == nil {
		return nil, nil, fmt.Errorf("server: model %q tenant %q: %w", name, tenant, ErrNoStaged)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.staged == nil {
		return nil, nil, fmt.Errorf("server: model %q tenant %q: %w", name, tenant, ErrNoStaged)
	}
	old = sl.active.Load()
	sl.lastGen++
	now = &servedModel{m: sl.staged, tenant: tenant, gen: sl.lastGen}
	sl.active.Store(now)
	sl.prev, sl.staged = old, nil
	return now, old, nil
}

// Rollback atomically republishes the previously active version (the
// one the last Promote retired) under a fresh generation, retiring the
// current active as the new rollback target — so two rollbacks swing
// back and forth. The generation always moves forward: a rollback is a
// new activation, not a return to the old one, which keeps cached
// densities from the first activation from leaking into the second.
func (r *Registry) Rollback(tenant, name string) (now, old *servedModel, err error) {
	sl := r.slotFor(tenant, name, false)
	if sl == nil {
		return nil, nil, fmt.Errorf("server: model %q tenant %q: %w", name, tenant, ErrNoPrevious)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.prev == nil {
		return nil, nil, fmt.Errorf("server: model %q tenant %q: %w", name, tenant, ErrNoPrevious)
	}
	old = sl.active.Load()
	sl.lastGen++
	now = &servedModel{m: sl.prev.m, tenant: tenant, gen: sl.lastGen}
	sl.active.Store(now)
	sl.prev = old
	return now, old, nil
}

// Staged reports whether (tenant, name) currently has a staged
// version awaiting promote.
func (r *Registry) Staged(tenant, name string) bool {
	sl := r.slotFor(tenant, name, false)
	if sl == nil {
		return false
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.staged != nil
}

// Names returns the default tenant's model names, sorted.
func (r *Registry) Names() []string {
	return r.TenantNames(DefaultTenant)
}

// TenantNames returns tenant's routable (active) model names, sorted.
func (r *Registry) TenantNames(tenant string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants[tenant]))
	for n, sl := range r.tenants[tenant] {
		if sl.active.Load() != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Tenants returns every tenant id with at least one slot, sorted.
func (r *Registry) Tenants() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for t := range r.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ModelCount counts tenant's occupied slots (active or staged) — the
// figure the per-tenant model quota is checked against, so a tenant
// cannot dodge its cap by parking models in the staged position.
func (r *Registry) ModelCount(tenant string) int {
	r.mu.RLock()
	slots := make([]*slot, 0, len(r.tenants[tenant]))
	for _, sl := range r.tenants[tenant] {
		slots = append(slots, sl)
	}
	r.mu.RUnlock()
	n := 0
	for _, sl := range slots {
		sl.mu.Lock()
		if sl.active.Load() != nil || sl.staged != nil {
			n++
		}
		sl.mu.Unlock()
	}
	return n
}

// Points sums the resident summarized points across tenant's active
// models, excluding the model named skip (the one a quota check is
// about to replace; "" skips nothing).
func (r *Registry) Points(tenant, skip string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for n, sl := range r.tenants[tenant] {
		if n == skip {
			continue
		}
		if sm := sl.active.Load(); sm != nil {
			total += int64(sm.m.Points())
		}
	}
	return total
}

// Checkpoint saves every active stream model (all tenants) that has a
// checkpoint path, returning the first error after attempting all.
func (r *Registry) Checkpoint() error {
	r.mu.RLock()
	tenants := make([]string, 0, len(r.tenants))
	for t := range r.tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	var models []*Model
	for _, t := range tenants {
		ns := r.tenants[t]
		names := make([]string, 0, len(ns))
		for n := range ns {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if sm := ns[n].active.Load(); sm != nil {
				models = append(models, sm.m)
			}
		}
	}
	r.mu.RUnlock()
	var first error
	for _, m := range models {
		if err := m.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
