package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udm/internal/obs"
)

// Front is the HTTP admission front of a serving tier: the one code
// path every /v1 request passes before its handler, shared by the
// single-node Server and the distributed proxy (internal/distrib). It
// owns tenant resolution and the X-UDM-Tenant echo, the global
// MaxInflight gate and the per-tenant fair-share ledger, the request
// timeout and root span, the request, endpoint, latency and tenant
// counters, the error envelope, the strict JSON decoder, and the
// http.Server lifecycle with /healthz, /readyz and /metrics. The tier
// name ("server" or "proxy") fixes the metric prefix (udm_<tier>_…)
// and the root span names (<tier>.<endpoint>).
type Front struct {
	tier     string
	prefix   string // udm_<tier>_
	opt      Options
	metrics  *FrontMetrics
	tracer   *obs.Tracer
	inflight chan struct{}
	ready    atomic.Bool
	mux      *http.ServeMux
	srv      *http.Server
	snapshot func() map[string]any

	// tenants holds each tenant's fair-share admission ledger and
	// labeled counters, created on first sight.
	tnMu    sync.Mutex
	tenants map[string]*tenantState
}

// FrontMetrics are the front's series on the tier's registry. Both
// tiers' Metrics embed them.
type FrontMetrics struct {
	start time.Time
	reg   *obs.Registry

	Requests *obs.Counter // every request to a guarded /v1 endpoint
	Errors   *obs.Counter // 4xx/5xx responses
	Shed     *obs.Counter // rejected with 429 by an inflight gate
	Timeouts *obs.Counter // 504s from the per-request deadline
	Canceled *obs.Counter // clients that disconnected mid-request

	// Latency of served /v1 requests (excluding shed ones), seconds.
	Latency *obs.Histogram
}

// Registry exposes the tier-scoped metrics registry.
func (m *FrontMetrics) Registry() *obs.Registry { return m.reg }

// Snapshot renders the keys every tier's JSON /metrics document
// shares; the tier adds its own.
func (m *FrontMetrics) Snapshot() map[string]any {
	return map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"requests":       m.Requests.Load(),
		"errors":         m.Errors.Load(),
		"shed":           m.Shed.Load(),
		"timeouts":       m.Timeouts.Load(),
		"canceled":       m.Canceled.Load(),
		"latency_count":  m.Latency.Count(),
	}
}

// NewFront builds a tier's front over opt (defaults applied here, so
// both tiers default alike). snapshot renders the tier's JSON /metrics
// document. /healthz, /readyz and /metrics are mounted; the tier adds
// its model routes with Route before serving.
func NewFront(tier string, opt Options, snapshot func() map[string]any) *Front {
	opt = opt.withDefaults()
	prefix := "udm_" + tier + "_"
	reg := obs.NewRegistry()
	m := &FrontMetrics{
		start:    time.Now(),
		reg:      reg,
		Requests: reg.Counter(prefix+"requests_total", "requests to /v1 endpoints"),
		Errors:   reg.Counter(prefix+"errors_total", "4xx/5xx responses"),
		Shed:     reg.Counter(prefix+"shed_total", "requests shed with 429 by the inflight gate"),
		Timeouts: reg.Counter(prefix+"timeouts_total", "504 responses from the per-request deadline"),
		Canceled: reg.Counter(prefix+"canceled_total", "clients that disconnected mid-request"),
		Latency:  reg.Histogram(prefix+"latency_seconds", "latency of served /v1 requests", latencyBuckets),
	}
	reg.GaugeFunc(prefix+"uptime_seconds", "seconds since the "+tier+" was built",
		func() float64 { return time.Since(m.start).Seconds() })
	f := &Front{
		tier:    tier,
		prefix:  prefix,
		opt:     opt,
		metrics: m,
		tracer: obs.NewTracer(obs.TracerOptions{
			RingSize:      256,
			SlowThreshold: opt.SlowRequest,
			SlowLogf:      opt.SlowLogf,
		}),
		inflight: make(chan struct{}, opt.MaxInflight),
		mux:      http.NewServeMux(),
		snapshot: snapshot,
		tenants:  make(map[string]*tenantState),
	}
	// Built once, here, so a Shutdown that runs before Serve still
	// stops it: Serve on a shut-down http.Server returns at once.
	f.srv = &http.Server{Handler: f.mux, ReadHeaderTimeout: 10 * time.Second}
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		f.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	f.ready.Store(true)
	return f
}

// Options returns the front's options with defaults applied.
func (f *Front) Options() Options { return f.opt }

// Metrics exposes the front's series.
func (f *Front) Metrics() *FrontMetrics { return f.metrics }

// Tracer exposes the front's span tracer: root request spans (and the
// spans they parent) land in its recent and slow rings.
func (f *Front) Tracer() *obs.Tracer { return f.tracer }

// Handler returns the root handler (useful for httptest and embedding).
func (f *Front) Handler() http.Handler { return f.mux }

// Route registers h under both model namespaces: pattern is
// "METHOD /models/..." relative to /v1, served at /v1/models/... (the
// legacy alias, tenant from X-UDM-Tenant or the default) and at
// /v1/t/{tenant}/models/.... Wrap h in Guard to put it behind
// admission.
func (f *Front) Route(pattern string, h http.HandlerFunc) {
	method, path, _ := strings.Cut(pattern, " ")
	for _, ns := range []string{"/v1", "/v1/t/{tenant}"} {
		f.mux.HandleFunc(method+" "+ns+path, h)
	}
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after Shutdown, even one that ran first.
func (f *Front) Serve(l net.Listener) error { return f.srv.Serve(l) }

// Shutdown flips /readyz to 503 (so load balancers stop routing here)
// and lets in-flight requests run to completion, bounded by ctx.
func (f *Front) Shutdown(ctx context.Context) error {
	f.ready.Store(false)
	return f.srv.Shutdown(ctx)
}

// Guard is the admission middleware for /v1 endpoints: count the
// request (total, per endpoint and per tenant), resolve and echo the
// tenant, shed with 429 when MaxInflight requests are already admitted
// globally or the tenant is past its fair-share cap, bound the work
// with the request timeout, open the root span, and record the latency
// of admitted requests overall and per endpoint. The global gate is
// taken first so a tenant-capped request still cannot oversubscribe
// the tier; shed responses carry X-UDM-Tenant, so a client can tell
// whose budget ran out.
func (f *Front) Guard(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := f.endpointRequests(endpoint)
	latency := f.metrics.reg.Histogram(f.prefix+"request_seconds", "request latency by endpoint",
		latencyBuckets, "endpoint", endpoint)
	spanName := f.tier + "." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		f.metrics.Requests.Inc()
		requests.Inc()
		tenant, ok := f.Tenant(w, r)
		if !ok {
			return
		}
		ts := f.tenant(tenant)
		ts.requests.Inc()
		select {
		case f.inflight <- struct{}{}:
		default:
			f.shed(w, "overloaded", fmt.Sprintf("more than %d requests in flight", f.opt.MaxInflight))
			return
		}
		defer func() { <-f.inflight }()
		if !ts.acquire() {
			ts.shed.Inc()
			f.shed(w, "tenant_overloaded", fmt.Sprintf("tenant %q has more than %d requests in flight", tenant, ts.limit))
			return
		}
		defer ts.release()
		ctx, cancel := context.WithTimeout(r.Context(), f.opt.RequestTimeout)
		defer cancel()
		ctx, sp := obs.StartSpan(obs.WithTracer(ctx, f.tracer), spanName)
		defer sp.End()
		sp.Attr("model", ModelRef(tenant, r.PathValue("model")))
		start := time.Now()
		h(w, r.WithContext(ctx))
		d := time.Since(start).Seconds()
		f.metrics.Latency.Observe(d)
		latency.Observe(d)
	}
}

func (f *Front) shed(w http.ResponseWriter, code, msg string) {
	f.metrics.Shed.Inc()
	w.Header().Set("Retry-After", "1")
	f.Error(w, http.StatusTooManyRequests, code, msg)
}

// endpointRequests get-or-creates the per-endpoint request counter.
func (f *Front) endpointRequests(endpoint string) *obs.Counter {
	return f.metrics.reg.Counter(f.prefix+"endpoint_requests_total", "requests by endpoint", "endpoint", endpoint)
}

// Tenant resolves the tenant r addresses — the /v1/t/{tenant}/ path
// segment, else X-UDM-Tenant, else the default tenant, so a
// pre-tenancy client's requests mean what they always did — and echoes
// it in X-UDM-Tenant. An invalid id is answered with 400 bad_tenant
// naming that id, and ok=false.
func (f *Front) Tenant(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	tenant = r.PathValue("tenant")
	if tenant == "" {
		tenant = r.Header.Get(TenantHeader)
	}
	if tenant == "" {
		tenant = DefaultTenant
	} else if !ValidIdent(tenant) {
		f.Error(w, http.StatusBadRequest, "bad_tenant",
			fmt.Sprintf("invalid tenant id %q (want 1-64 chars of [A-Za-z0-9._-])", tenant))
		return "", false
	}
	w.Header().Set(TenantHeader, tenant)
	return tenant, true
}

// tenantState is one tenant's admission ledger: an atomic inflight
// count checked against the fair-share cap, plus the tenant-labeled
// counters (Prometheus-only — the JSON /metrics key sets are frozen).
type tenantState struct {
	limit    int64 // ≤ 0 = unlimited
	inflight atomic.Int64
	requests *obs.Counter
	shed     *obs.Counter
}

func (t *tenantState) acquire() bool {
	if t.limit <= 0 {
		return true
	}
	if t.inflight.Add(1) > t.limit {
		t.inflight.Add(-1)
		return false
	}
	return true
}

func (t *tenantState) release() {
	if t.limit > 0 {
		t.inflight.Add(-1)
	}
}

// tenant get-or-creates the admission state for a tenant id.
func (f *Front) tenant(id string) *tenantState {
	f.tnMu.Lock()
	defer f.tnMu.Unlock()
	ts := f.tenants[id]
	if ts == nil {
		reg := f.metrics.reg
		ts = &tenantState{
			limit:    int64(f.opt.quota(id).MaxInflight),
			requests: reg.Counter(f.prefix+"tenant_requests_total", "requests by tenant", "tenant", id),
			shed:     reg.Counter(f.prefix+"tenant_shed_total", "requests shed by the per-tenant fair-share cap", "tenant", id),
		}
		f.tenants[id] = ts
	}
	return ts
}

// errorBody is the uniform error envelope: a stable machine-readable
// code (derived from the library's sentinel errors) plus a human
// message.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error writes the error envelope and counts it: every response in
// errors, 504s in timeouts too, 499s in canceled.
func (f *Front) Error(w http.ResponseWriter, status int, code, msg string) {
	f.metrics.Errors.Inc()
	switch status {
	case http.StatusGatewayTimeout:
		f.metrics.Timeouts.Inc()
	case StatusClientClosedRequest:
		f.metrics.Canceled.Inc()
	}
	_ = writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: msg}}) // two strings always marshal
}

// WriteJSON answers v under status. v is marshalled before anything is
// written, so a body JSON cannot carry (a NaN or ±Inf density) answers
// 500 internal in the error envelope, counted like any other error,
// and never an empty 200.
func (f *Front) WriteJSON(w http.ResponseWriter, status int, v any) {
	if err := writeJSON(w, status, v); err != nil {
		f.Error(w, http.StatusInternalServerError, "internal", fmt.Sprintf("%s: encoding response: %v", f.tier, err))
	}
}

// writeJSON marshals v and, only once that has succeeded, writes it
// newline-terminated under status. On a marshal error nothing has been
// written, so the caller can still answer with an error.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client went away
	return nil
}

// Fail maps err to its status and stable code through the module's
// sentinels and writes the error envelope.
func (f *Front) Fail(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	if status == http.StatusServiceUnavailable {
		// The proxy's shard-breaker refusals clear on their own; tell
		// well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	f.Error(w, status, code, err.Error())
}

// Decode parses a JSON request body strictly (unknown fields are
// errors), answering malformed input with 400 malformed_json.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		f.Error(w, http.StatusBadRequest, "malformed_json", err.Error())
		return false
	}
	return true
}

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !f.ready.Load() {
		// Draining is not an error of the request: left uncounted.
		f.WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: errorDetail{
			Code: "draining", Message: f.tier + " is shutting down"}})
		return
	}
	f.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the tier's JSON document by default, and with
// ?format=prometheus the text exposition: the tier registry followed
// by the process-wide default registry (library and runtime series).
// The two use disjoint metric-name prefixes, so concatenation is a
// valid exposition.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := f.metrics.reg.WritePrometheus(w); err != nil {
			return // client went away mid-scrape; nothing to salvage
		}
		_ = obs.Default().WritePrometheus(w)
		return
	}
	f.WriteJSON(w, http.StatusOK, f.snapshot())
}
