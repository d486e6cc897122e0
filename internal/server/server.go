package server

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"udm/internal/kde"
	"udm/internal/obs"
)

// Options configure the serving layer. The zero value is usable; every
// field has a production-minded default.
type Options struct {
	// MaxBatch caps how many coalesced single-point requests ride one
	// batched library call (default 64).
	MaxBatch int
	// BatchDelay is ignored.
	//
	// Deprecated: coalescing is work-conserving — a request that finds
	// its coalescer idle flushes at once, and requests that arrive
	// while a batch runs flush together when it finishes — so there is
	// no window to configure. The field is kept so existing callers
	// compile.
	BatchDelay time.Duration
	// RequestTimeout bounds each request's server-side work (default
	// 30s). Exceeding it returns 504 and cancels the underlying batch
	// computation through the context-first library APIs.
	RequestTimeout time.Duration
	// MaxInflight caps concurrently-admitted /v1 requests; excess
	// requests are shed immediately with 429 (default 256).
	MaxInflight int
	// CacheSize bounds the density LRU cache in entries (default 4096;
	// negative disables caching).
	CacheSize int
	// Workers caps the worker pool used for batched evaluations (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// Debug enables the runtime introspection surface: /debug/pprof/*,
	// /debug/traces (recent request traces), /debug/slow (spans over the
	// slow threshold), and runtime gauges on the metrics registry
	// (default off — these endpoints are unauthenticated).
	Debug bool
	// SlowRequest is the span duration at or above which a request is
	// logged as slow and retained in the slow-span ring (default 1s;
	// negative disables slow tracking).
	SlowRequest time.Duration
	// SlowLogf receives slow-span log lines (default log.Printf). It
	// must be safe for concurrent use.
	SlowLogf func(format string, args ...any)

	// TenantMaxInflight is the default per-tenant fair-share cap on
	// concurrently admitted /v1 requests (default MaxInflight, i.e. no
	// tighter than the global gate until configured; negative =
	// unlimited). One tenant bursting past its share sheds with 429
	// tenant_overloaded while other tenants keep their headroom.
	TenantMaxInflight int
	// TenantMaxModels is the default per-tenant cap on occupied registry
	// slots, active or staged (0 = unlimited).
	TenantMaxModels int
	// TenantMaxPoints is the default per-tenant cap on resident
	// summarized points across active models (0 = unlimited); ingest and
	// staged uploads that would exceed it are refused with 429
	// quota_exceeded.
	TenantMaxPoints int64
	// TenantQuotas overrides the three per-tenant caps for specific
	// tenants; zero fields inherit the defaults above.
	TenantQuotas map[string]Quota

	// ModelKDE is the estimator policy applied to models staged via
	// PUT /v1/t/{tenant}/models/{model} (the upload carries only the
	// artifact; evaluation policy is the operator's).
	ModelKDE kde.Options
	// ModelThreshold is the classifier density threshold for staged
	// transform uploads (0 = the library default).
	ModelThreshold float64
}

func (o Options) withDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.SlowRequest == 0 {
		o.SlowRequest = time.Second
	} else if o.SlowRequest < 0 {
		o.SlowRequest = 0 // 0 disables slow tracking in the tracer
	}
	if o.SlowLogf == nil {
		o.SlowLogf = log.Printf
	}
	if o.TenantMaxInflight == 0 {
		o.TenantMaxInflight = o.MaxInflight
	}
	return o
}

// Server is the single-node serving tier: routing, micro-batching,
// caching and metrics over a model registry, behind the shared
// admission front (front.go).
type Server struct {
	reg     *Registry
	opt     Options
	front   *Front
	metrics *Metrics
	cache   *lruCache

	// ingestSeen remembers recently acknowledged ingest batches by
	// idempotency key so a retry of a lost response never re-applies
	// records (idempotency.go).
	ingestSeen *ingestDedup

	// runtimes maps each published *Model instance — not its name — to
	// its coalescing batchers, so a micro-batch only ever contains
	// requests that resolved the same (model, generation) pair: the
	// version-pinning half of atomic hot-swap. baseCtx parents every
	// batch flush; retired instances are dropped on swap.
	baseCtx  context.Context
	rtMu     sync.Mutex
	runtimes map[*Model]*modelBatchers
}

// modelBatchers holds one coalescer per (model, operation) pair.
// Classify and full-dimensional density each get one; density requests
// over explicit dimension subsets bypass coalescing (a batch must share
// one dims slice).
type modelBatchers struct {
	classify *batcher[[]float64, int]
	density  *batcher[[]float64, float64]
}

// New builds a server over a fully-populated registry. The registry
// must not be mutated afterwards. Batch work is unbounded by any
// caller lifecycle; use NewContext to tie in-flight batches to a
// lifetime.
func New(reg *Registry, opt Options) *Server {
	return NewContext(context.Background(), reg, opt)
}

// NewContext is New with an explicit lifecycle context: every
// micro-batched library call descends from ctx, so canceling it
// abandons in-flight batch work (individual waiters still observe
// their own request contexts first). A nil ctx means an unbounded
// lifetime.
func NewContext(ctx context.Context, reg *Registry, opt Options) *Server {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Server{
		reg:        reg,
		ingestSeen: newIngestDedup(),
		runtimes:   make(map[*Model]*modelBatchers),
	}
	s.front = NewFront("server", opt, func() map[string]any {
		snap := s.metrics.snapshot()
		snap["cache_entries"] = s.cache.len()
		return snap
	})
	s.opt = s.front.Options()
	s.metrics = newMetrics(s.front)
	s.cache = newLRUCache(s.opt.CacheSize)
	s.metrics.reg.GaugeFunc("udm_server_cache_entries", "live density-cache entries",
		func() float64 { return float64(s.cache.len()) })
	if s.opt.Debug {
		obs.RegisterRuntimeGauges(s.metrics.reg)
	}
	// Batch flushes run under the server lifecycle context, not any one
	// request's; carry the server tracer so their library spans land in
	// the same rings as request spans. Batchers themselves are built
	// lazily per published model instance (see runtime) — models now
	// appear and swap at runtime, not only before the server starts.
	s.baseCtx = obs.WithTracer(ctx, s.front.Tracer())
	s.routes()
	return s
}

// runtime get-or-creates the coalescing batchers for one published
// (model, generation) pair, keyed by model instance: every request in
// a coalesced batch resolved the same instance, so a batch can never
// span a version swap. Flush closures capture the instance and run
// under the server lifecycle context.
func (s *Server) runtime(sm *servedModel) *modelBatchers {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	mb, ok := s.runtimes[sm.m]
	if ok {
		return mb
	}
	m, opt := sm.m, s.opt
	mb = &modelBatchers{}
	if clf := m.Classifier(); clf != nil {
		mb.classify = newBatcher(s.baseCtx, opt.MaxBatch, s.metrics,
			func(ctx context.Context, reqs [][]float64) ([]int, error) {
				return clf.ClassifyBatchContext(ctx, reqs, opt.Workers)
			})
	}
	mb.density = newBatcher(s.baseCtx, opt.MaxBatch, s.metrics,
		func(ctx context.Context, reqs [][]float64) ([]float64, error) {
			est, _, err := m.estimator()
			if err != nil {
				return nil, err
			}
			return kde.DensityBatchOpts(est, reqs, nil, kde.BatchOptions{Ctx: ctx, Workers: opt.Workers})
		})
	s.runtimes[sm.m] = mb
	return mb
}

// retire drops a swapped-out model instance's batchers. Requests
// already pinned to the old version keep their batcher and finish on
// it, while new arrivals resolve the new instance — the swap is
// zero-downtime.
func (s *Server) retire(m *Model) {
	s.rtMu.Lock()
	delete(s.runtimes, m)
	s.rtMu.Unlock()
}

// Handler returns the root handler (useful for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// Metrics exposes the server's counters (useful for tests and
// embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the server's span tracer: request spans (and the
// library spans they parent) land in its recent and slow rings.
func (s *Server) Tracer() *obs.Tracer { return s.front.Tracer() }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after Shutdown, like net/http — at once when
// Shutdown ran first.
func (s *Server) Serve(l net.Listener) error { return s.front.Serve(l) }

// Shutdown drains the server gracefully: readiness flips to 503 (so
// load balancers stop routing here), in-flight requests run to
// completion (bounded by ctx), and every stream model is checkpointed
// via its engine's Save. It returns the first error encountered.
func (s *Server) Shutdown(ctx context.Context) error {
	first := s.front.Shutdown(ctx)
	if err := s.reg.Checkpoint(); err != nil && first == nil {
		first = err
	}
	return first
}

// routes wires the endpoint table onto the front. Every model route
// is served under the tenant namespace /v1/t/{tenant}/models/... and
// the legacy /v1/models/... alias (see Front.Route).
func (s *Server) routes() {
	f := s.front
	f.Route("GET /models", s.handleModels)
	f.Route("POST /models/{model}/classify", f.Guard("classify", s.handleClassify))
	f.Route("POST /models/{model}/density", f.Guard("density", s.handleDensity))
	f.Route("POST /models/{model}/outliers", f.Guard("outliers", s.handleOutliers))
	f.Route("POST /models/{model}/ingest", f.Guard("ingest", s.handleIngest))
	// Hot-swap lifecycle: stage an uploaded artifact, promote it
	// atomically, roll back to the retired version.
	f.Route("PUT /models/{model}", s.handleStage)
	f.Route("POST /models/{model}/promote", s.handlePromote)
	f.Route("POST /models/{model}/rollback", s.handleRollback)
	// Distributed-serving protocol (internal/distrib): summary pull,
	// partial-term fan-out, and replica catch-up.
	f.Route("GET /models/{model}/summary", s.handleSummary)
	f.Route("GET /models/{model}/checkpoint", s.handleCheckpoint)
	f.Route("GET /models/{model}/tail", s.handleTail)
	f.Route("POST /models/{model}/partial", f.Guard("partial", s.handlePartial))
	if s.opt.Debug {
		f.mux.HandleFunc("GET /debug/traces", s.handleTraces)
		f.mux.HandleFunc("GET /debug/slow", s.handleSlow)
		f.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		f.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		f.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		f.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		f.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}
