package distrib

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/obs"
	"udm/internal/server"
	"udm/internal/udmerr"
)

// ModelConfig declares one model the proxy serves and how it is laid
// out across the shard set. Every shard must serve the model under the
// same name; Dims and KDE must match the shard-side configuration
// (KDE's bandwidth rule decides the merged head's global bandwidths,
// so a mismatch breaks bit-identity).
type ModelConfig struct {
	// Name is the model's reference: a plain name lives in the default
	// tenant, a qualified "tenant/name" in that tenant's namespace, and
	// "default/x" is the same model as "x". The proxy addresses the
	// shards through the matching namespace, so a qualified model must
	// be registered under the same tenant on every shard.
	Name string
	Mode Mode
	Dims int
	KDE  kde.Options
}

// Options configure the proxy front tier. The zero value is usable.
type Options struct {
	// Server supplies the knobs the proxy shares with the single-node
	// server: micro-batching (MaxBatch), admission control
	// (MaxInflight, TenantMaxInflight, TenantQuotas' MaxInflight,
	// RequestTimeout) and slow-span logging. The quotas on models and
	// points are enforced by the shards.
	Server server.Options
	// FanoutWorkers bounds the scatter stage's concurrency (≤ 0 means
	// one worker per shard is allowed, the parallel pool's default).
	FanoutWorkers int
	// VNodes is the consistent-hash ring's virtual nodes per shard
	// (default 64).
	VNodes int
	// RingSeed seeds the ring layout (default 1). Every proxy replica
	// must use the same seed to route identically.
	RingSeed uint64
	// ShardTimeout bounds each shard RPC attempt (default 10s).
	ShardTimeout time.Duration
	// RefreshMax bounds how many times a fan-out refreshes its head and
	// re-scatters after a shard answers 409 stale_version (default 3).
	RefreshMax int

	// RetryMax is how many times a transiently-failed shard RPC is
	// re-run beyond the first attempt (default 2; negative disables
	// retries). Input errors, context endings and breaker refusals are
	// never retried.
	RetryMax int
	// RetryBase and RetryCap bound the decorrelated-jitter backoff
	// between retry attempts: each sleep is drawn from [RetryBase,
	// 3×previous] and clamped to RetryCap (defaults 5ms and 250ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the backoff jitter stream, making retry schedules
	// reproducible for a fixed seed and arrival order (default 1).
	RetrySeed int64
	// BreakerThreshold is the number of consecutive transient RPC
	// failures that opens a shard's circuit breaker (default 5;
	// negative disables breakers). While open, the shard is refused
	// with ErrCircuitOpen without an RPC, and fan-outs answer from the
	// surviving shards.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses its shard
	// before letting probe requests through (default 5s).
	BreakerCooldown time.Duration
	// BreakerProbes is how many half-open probe requests may be in
	// flight at once, and how many must succeed consecutively to close
	// the breaker again (default 1).
	BreakerProbes int
}

// withDefaults fills unset fields. It is idempotent: negative RetryMax
// and BreakerThreshold survive it, and the guard reads them as
// "disabled".
func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.RingSeed == 0 {
		o.RingSeed = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 10 * time.Second
	}
	if o.RefreshMax <= 0 {
		o.RefreshMax = 3
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2
	}
	if o.RetryBase == 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryCap == 0 {
		o.RetryCap = 250 * time.Millisecond
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.BreakerProbes == 0 {
		o.BreakerProbes = 1
	}
	return o
}

// densityItem is one coalesced single-point density answer: the value
// plus the fan-out's coverage (1 on a complete answer).
type densityItem struct {
	d        float64
	coverage float64
}

// proxyModel is one served model: its coordinator plus the coalescer
// that micro-batches concurrent single-point density requests onto one
// fan-out, exactly as the single-node server coalesces them onto one
// batched library call.
type proxyModel struct {
	cfg      ModelConfig
	co       *Coordinator
	coalesce *server.Coalescer[[]float64, densityItem]
}

// Proxy is the distributed front tier: an HTTP server that is drop-in
// URL-compatible with the single-node udmserve surface (/healthz,
// /readyz, /metrics, /v1/models, classify/density/outliers/ingest),
// mounted on the same admission front (server.Front), and answers by
// fanning out to the shard set. See the package comment for the
// merge-determinism contract.
type Proxy struct {
	front   *server.Front
	metrics *Metrics
	shards  []*ShardClient
	models  map[string]*proxyModel
	names   []string
}

// NewProxy builds a proxy over the shard set. Like server.New, batch
// work is unbounded by any caller lifecycle; use NewProxyContext to tie
// coalesced fan-outs to a lifetime.
func NewProxy(shards []Shard, models []ModelConfig, opt Options) (*Proxy, error) {
	return NewProxyContext(nil, shards, models, opt)
}

// NewProxyContext is NewProxy with an explicit lifecycle context for
// the coalescers (nil means an unbounded lifetime).
func NewProxyContext(ctx context.Context, shards []Shard, models []ModelConfig, opt Options) (*Proxy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("distrib: proxy needs at least one shard")
	}
	opt = opt.withDefaults()
	p := &Proxy{models: make(map[string]*proxyModel)}
	p.front = server.NewFront("proxy", opt.Server, p.snapshot)
	p.metrics = newProxyMetrics(p.front.Metrics())
	ring, err := NewRing(len(shards), opt.VNodes, opt.RingSeed)
	if err != nil {
		return nil, err
	}
	p.shards = make([]*ShardClient, len(shards))
	for i, sh := range shards {
		p.shards[i] = NewShardClient(i, sh, opt, p.metrics.Registry())
	}
	ctx = obs.WithTracer(ctx, p.front.Tracer())
	for _, cfg := range models {
		ref := cfg.Name
		cfg.Name = server.ModelRef(server.SplitModelRef(ref)) // "default/x" is "x"
		if _, dup := p.models[cfg.Name]; dup || !server.ValidModelRef(ref) {
			return nil, fmt.Errorf("distrib: duplicate or invalid model reference %q", ref)
		}
		if cfg.Mode != ModePartitioned && cfg.Mode != ModeReplicated {
			return nil, fmt.Errorf("distrib: model %q: mode %q is not %q or %q: %w",
				cfg.Name, cfg.Mode, ModePartitioned, ModeReplicated, udmerr.ErrBadOption)
		}
		co, err := NewCoordinator(cfg.Name, cfg.Mode, cfg.Dims, cfg.KDE, p.shards, ring, opt, p.metrics)
		if err != nil {
			return nil, err
		}
		pm := &proxyModel{cfg: cfg, co: co}
		pm.coalesce = server.NewCoalescer(ctx, p.front.Options().MaxBatch,
			func(ctx context.Context, reqs [][]float64) ([]densityItem, error) {
				var ds []float64
				cov := 1.0
				var err error
				if cfg.Mode == ModePartitioned {
					ds, cov, err = co.Density(ctx, reqs, nil)
				} else {
					ds, err = co.ReplicatedDensity(ctx, reqs, server.DensityRequest{})
				}
				if err != nil {
					return nil, err
				}
				items := make([]densityItem, len(ds))
				for i, d := range ds {
					items[i] = densityItem{d: d, coverage: cov}
				}
				return items, nil
			})
		p.models[cfg.Name] = pm
		p.names = append(p.names, cfg.Name)
	}
	p.routes()
	return p, nil
}

// Handler returns the root handler (useful for httptest and embedding).
func (p *Proxy) Handler() http.Handler { return p.front.Handler() }

// Metrics exposes the proxy's counters.
func (p *Proxy) Metrics() *Metrics { return p.metrics }

// Coordinator returns the referenced model's coordinator (nil when
// absent) — exposed for cmd/udmproxy and tests.
func (p *Proxy) Coordinator(model string) *Coordinator {
	pm, ok := p.models[server.ModelRef(server.SplitModelRef(model))]
	if !ok {
		return nil
	}
	return pm.co
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after Shutdown — at once when Shutdown ran
// first.
func (p *Proxy) Serve(l net.Listener) error { return p.front.Serve(l) }

// Shutdown drains the proxy: readiness flips to 503 and in-flight
// requests run to completion bounded by ctx.
func (p *Proxy) Shutdown(ctx context.Context) error { return p.front.Shutdown(ctx) }

// routes mirrors the server's model surface on the front, namespaced
// /v1/t/{tenant}/... routes plus the legacy /v1/... alias.
func (p *Proxy) routes() {
	f := p.front
	f.Route("GET /models", p.handleModels)
	f.Route("POST /models/{model}/classify", f.Guard("classify", p.handleClassify))
	f.Route("POST /models/{model}/density", f.Guard("density", p.handleDensity))
	f.Route("POST /models/{model}/outliers", f.Guard("outliers", p.handleOutliers))
	f.Route("POST /models/{model}/ingest", f.Guard("ingest", p.handleIngest))
}

// model resolves the request's (tenant, model) pair against the
// configured model references.
func (p *Proxy) model(w http.ResponseWriter, r *http.Request) (*proxyModel, bool) {
	tenant, ok := p.front.Tenant(w, r)
	if !ok {
		return nil, false
	}
	name := r.PathValue("model")
	pm, ok := p.models[server.ModelRef(tenant, name)]
	if !ok {
		p.front.Error(w, http.StatusNotFound, "model_not_found",
			fmt.Sprintf("no model named %q in tenant %q (have %v)", name, tenant, p.names))
		return nil, false
	}
	return pm, true
}

func (p *Proxy) handleModels(w http.ResponseWriter, r *http.Request) {
	tenant, ok := p.front.Tenant(w, r)
	if !ok {
		return
	}
	type info struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Dims   int    `json:"dims"`
		Shards int    `json:"shards"`
	}
	out := make([]info, 0, len(p.names))
	for _, ref := range p.names {
		refTenant, name := server.SplitModelRef(ref)
		if refTenant != tenant {
			continue
		}
		pm := p.models[ref]
		out = append(out, info{Name: name, Kind: string(pm.cfg.Mode), Dims: pm.cfg.Dims, Shards: len(p.shards)})
	}
	p.front.WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (p *Proxy) handleClassify(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	if pm.cfg.Mode != ModeReplicated {
		p.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is %s; /classify needs a replicated transform model", pm.cfg.Name, pm.cfg.Mode))
		return
	}
	var req server.ClassifyRequest
	if !p.front.Decode(w, r, &req) {
		return
	}
	rows, single, err := req.Validate(pm.cfg.Name, pm.cfg.Dims)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	labels, err := pm.co.Classify(r.Context(), rows)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	resp := server.ClassifyResponse{Labels: labels}
	if single {
		resp.Label = &labels[0]
	}
	p.front.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleDensity(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	var req server.DensityRequest
	if !p.front.Decode(w, r, &req) {
		return
	}
	rows, single, acc, bk, err := req.Validate(w, r, pm.cfg.Name, pm.cfg.Dims)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	if pm.cfg.Mode == ModePartitioned {
		// The partial-term protocol is the exact engine: approximate
		// accuracy modes and backends have no cross-shard merge story.
		if !acc.IsExact() || (bk != evalopt.BackendDefault && bk != evalopt.BackendExact) {
			p.front.Fail(w, fmt.Errorf("distrib: model %q is partitioned; fan-out density is exact-only (got accuracy %q, backend %q): %w",
				pm.cfg.Name, acc, bk, udmerr.ErrBadOption))
			return
		}
		var ds []float64
		coverage := 1.0
		if single && req.Dims == nil {
			item, err := pm.coalesce.Do(r.Context(), rows[0])
			if err != nil {
				p.front.Fail(w, err)
				return
			}
			ds, coverage = []float64{item.d}, item.coverage
		} else {
			ds, coverage, err = pm.co.Density(r.Context(), rows, req.Dims)
			if err != nil {
				p.front.Fail(w, err)
				return
			}
		}
		resp := server.DensityResponse{Densities: ds}
		if single {
			resp.Density = &ds[0]
		}
		if coverage < 1 {
			w.Header().Set("X-UDM-Degraded", "partial")
			resp.Coverage = coverage
		}
		p.front.WriteJSON(w, http.StatusOK, resp)
		return
	}
	ds, err := pm.co.ReplicatedDensity(r.Context(), rows, req)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	resp := server.DensityResponse{Densities: ds}
	if single {
		resp.Density = &ds[0]
	}
	p.front.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleOutliers(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	var req server.OutliersRequest
	if !p.front.Decode(w, r, &req) {
		return
	}
	if err := req.Validate(pm.cfg.Name, pm.cfg.Dims); err != nil {
		p.front.Fail(w, err)
		return
	}
	if pm.cfg.Mode == ModeReplicated {
		resp, err := pm.co.ForwardOutliers(r.Context(), req)
		if err != nil {
			p.front.Fail(w, err)
			return
		}
		p.front.WriteJSON(w, http.StatusOK, resp)
		return
	}
	// Partitioned: score locally against the merged head — the exact
	// summary of the union of the shards' data, so the scores match a
	// single node's.
	head, err := pm.co.CurrentHead(r.Context())
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	resp, err := server.ScoreOutliers(r.Context(), head.Sum, pm.cfg.KDE, req)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	p.front.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleIngest(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	if pm.cfg.Mode != ModePartitioned {
		p.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is %s; /ingest needs a partitioned stream model", pm.cfg.Name, pm.cfg.Mode))
		return
	}
	var req server.IngestRequest
	if !p.front.Decode(w, r, &req) {
		return
	}
	if err := req.Validate(pm.cfg.Name, pm.cfg.Dims); err != nil {
		p.front.Fail(w, err)
		return
	}
	resp, err := pm.co.Ingest(r.Context(), req)
	if err != nil {
		p.front.Fail(w, err)
		return
	}
	p.front.WriteJSON(w, http.StatusOK, resp)
}
