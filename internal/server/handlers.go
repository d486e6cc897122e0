package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
)

// model resolves the request's (tenant, model) pair to the atomically
// published (model, generation) — writing 400 on a bad tenant id and
// 404 on a miss — and stamps the tenant and generation echo headers,
// so every model response is pinned to exactly one version on the
// wire.
func (s *Server) model(w http.ResponseWriter, r *http.Request) (*servedModel, bool) {
	tenant, ok := s.front.Tenant(w, r)
	if !ok {
		return nil, false
	}
	name := r.PathValue("model")
	sm, ok := s.reg.Resolve(tenant, name)
	if !ok {
		s.front.Error(w, http.StatusNotFound, "model_not_found",
			fmt.Sprintf("no model named %q in tenant %q (have %v)", name, tenant, s.reg.TenantNames(tenant)))
		return nil, false
	}
	w.Header().Set(ModelVersionHeader, strconv.FormatUint(sm.gen, 10))
	return sm, true
}

// --- introspection (Options.Debug) ---

// handleTraces dumps the tracer's recent-traces ring (newest last).
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	s.front.WriteJSON(w, http.StatusOK, map[string]any{"traces": s.Tracer().Recent()})
}

// handleSlow dumps spans that exceeded the slow-request threshold.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	s.front.WriteJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": s.opt.SlowRequest.Nanoseconds(),
		"slow":         s.Tracer().Slow(),
	})
}

type modelInfo struct {
	Name   string `json:"name"`
	Kind   Kind   `json:"kind"`
	Dims   int    `json:"dims"`
	Count  int    `json:"count,omitempty"`
	Gen    uint64 `json:"gen,omitempty"`
	Staged bool   `json:"staged,omitempty"` // a newer version awaits promote
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.front.Tenant(w, r)
	if !ok {
		return
	}
	names := s.reg.TenantNames(tenant)
	out := make([]modelInfo, 0, len(names))
	for _, n := range names {
		sm, ok := s.reg.Resolve(tenant, n)
		if !ok {
			continue
		}
		info := modelInfo{Name: n, Kind: sm.m.Kind(), Dims: sm.m.Dims(),
			Gen: sm.gen, Staged: s.reg.Staged(tenant, n)}
		if sm.m.Engine() != nil {
			info.Count = sm.m.Engine().Count()
		}
		out = append(out, info)
	}
	s.front.WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

// --- /v1/models/{model}/classify ---

type classifyRequest struct {
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

type classifyResponse struct {
	Labels []int `json:"labels"`
	Label  *int  `json:"label,omitempty"` // set for single-point requests
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	clf := m.Classifier()
	if clf == nil {
		s.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is a %s; /classify needs a transform model", m.Name(), m.Kind()))
		return
	}
	var req classifyRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	rows, single, err := req.Validate(m.Name(), m.Dims())
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	var labels []int
	if single {
		// Coalesce concurrent single-point requests into one batched
		// call on the worker pool.
		label, err := s.runtime(sm).classify.do(r.Context(), rows[0])
		if err != nil {
			s.front.Fail(w, err)
			return
		}
		labels = []int{label}
	} else {
		labels, err = clf.ClassifyBatchContext(r.Context(), rows, s.opt.Workers)
		if err != nil {
			s.front.Fail(w, err)
			return
		}
	}
	resp := classifyResponse{Labels: labels}
	if single {
		resp.Label = &labels[0]
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}

// --- /v1/models/{model}/density ---

type densityRequest struct {
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
	Dims   []int       `json:"dims,omitempty"`
	// Accuracy selects the evaluation mode: "" or "exact" (default) for
	// bit-exact densities, "approx" for the bounded-error fast path with
	// relative error at most Epsilon (default 1e-6 when omitted).
	Accuracy string  `json:"accuracy,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	// Backend selects the density backend: "" or "exact" (default) for
	// the bit-exact engine, or "micro" or "grid" for the other rungs of
	// the ladder. The X-UDM-Backend request header is the
	// fallback when this field is empty; the JSON field wins when both
	// are set.
	Backend string `json:"backend,omitempty"`
}

type densityResponse struct {
	Densities []float64 `json:"densities"`
	Density   *float64  `json:"density,omitempty"` // set for single-point requests
	Cached    bool      `json:"cached,omitempty"`
	// Coverage is set by the distributed front tier on degraded partial
	// answers: the fraction of the model's summarized mass the
	// surviving shards contributed, in (0, 1). Absent on every complete
	// answer.
	Coverage float64 `json:"coverage,omitempty"`
}

func (s *Server) handleDensity(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	var req densityRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	rows, single, acc, bk, err := req.Validate(w, r, m.Name(), m.Dims())
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	if single {
		d, cached, err := s.densityOne(r.Context(), sm, rows[0], req.Dims, bk, acc)
		if err != nil {
			s.front.Fail(w, err)
			return
		}
		s.front.WriteJSON(w, http.StatusOK, densityResponse{Densities: []float64{d}, Density: &d, Cached: cached})
		return
	}
	ds, err := densities(r.Context(), m, rows, req.Dims, bk, acc, s.opt.Workers)
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	s.front.WriteJSON(w, http.StatusOK, densityResponse{Densities: ds})
}

// densities evaluates rows over dims on m's requested backend and
// accuracy mode.
func densities(ctx context.Context, m *Model, rows [][]float64, dims []int, bk evalopt.Backend, acc kernel.AccuracyMode, workers int) ([]float64, error) {
	est, err := m.backendAt(bk, acc)
	if err != nil {
		return nil, err
	}
	return kde.DensityBatchOpts(est, rows, dims, kde.BatchOptions{Ctx: ctx, Workers: workers})
}

// densityOne serves one density query through the LRU cache and, for
// full-dimensional exact queries on the exact backend, the
// micro-batcher. Subset, approximate, and non-default-backend queries
// bypass coalescing (one batch shares one dims slice, one accuracy
// mode, and one backend) but still hit the cache. Cache keys are
// segmented by tenant and activation generation (two tenants' — or two
// versions' — identical float batches are different answers) and by
// accuracy and backend so answers from different rungs never alias;
// the default and explicit-exact backends share the pre-backend key
// format (they are bit-identical by contract).
func (s *Server) densityOne(ctx context.Context, sm *servedModel, x []float64, dims []int, bk evalopt.Backend, acc kernel.AccuracyMode) (d float64, cached bool, err error) {
	m := sm.m
	exactBackend := bk == evalopt.BackendDefault || bk == evalopt.BackendExact
	mode := acc.String()
	if !exactBackend {
		mode = string(bk) + ":" + mode
	}
	key := cacheKey(sm.tenant, m.Name(), sm.gen, m.version(), mode, dims, x)
	if d, ok := s.cache.get(key); ok {
		s.metrics.CacheHits.Add(1)
		return d, true, nil
	}
	s.metrics.CacheMisses.Add(1)
	if exactBackend && dims == nil && acc.IsExact() {
		d, err = s.runtime(sm).density.do(ctx, x)
	} else {
		var ds []float64
		if ds, err = densities(ctx, m, [][]float64{x}, dims, bk, acc, 1); err == nil {
			d = ds[0]
		}
	}
	if err != nil {
		return 0, false, err
	}
	s.cache.put(key, d)
	return d, false, nil
}

// --- /v1/models/{model}/outliers ---

type outliersRequest struct {
	Points        [][]float64 `json:"points"`
	Errors        [][]float64 `json:"errors,omitempty"`
	Dims          []int       `json:"dims,omitempty"`
	Contamination float64     `json:"contamination,omitempty"`
}

type outliersResponse struct {
	Scores    []float64 `json:"scores"`
	Outliers  []bool    `json:"outliers"`
	Threshold float64   `json:"threshold"`
}

func (s *Server) handleOutliers(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	var req outliersRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if err := req.Validate(m.Name(), m.Dims()); err != nil {
		s.front.Fail(w, err)
		return
	}
	sum, err := m.summarizer()
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	resp, err := ScoreOutliers(r.Context(), sum, m.kdeOpt, req)
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}

// --- /v1/models/{model}/ingest ---

type ingestRequest struct {
	Points     [][]float64 `json:"points"`
	Errors     [][]float64 `json:"errors,omitempty"`
	Timestamps []int64     `json:"timestamps,omitempty"`
}

type ingestResponse struct {
	Ingested int `json:"ingested"`
	Count    int `json:"count"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	eng := m.Engine()
	if eng == nil {
		s.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is a %s; /ingest needs a stream model", m.Name(), m.Kind()))
		return
	}
	var req ingestRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if err := req.Validate(m.Name(), m.Dims()); err != nil {
		s.front.Fail(w, err)
		return
	}
	rows := req.Points
	// The resident-point quota is checked against the tenant's current
	// footprint plus this batch; a batch that would cross the cap is
	// refused whole rather than partially applied.
	if q := s.opt.quota(sm.tenant); q.MaxPoints > 0 &&
		s.reg.Points(sm.tenant, "")+int64(len(rows)) > q.MaxPoints {
		s.front.Error(w, http.StatusTooManyRequests, "quota_exceeded",
			fmt.Sprintf("ingesting %d points would exceed tenant %q point quota (%d)",
				len(rows), sm.tenant, q.MaxPoints))
		return
	}
	// A keyed batch already applied once (its response was lost and the
	// client retried) is acknowledged again, never re-applied — see
	// idempotency.go. Keys are scoped per (tenant, model).
	var dedupKey string
	if key := r.Header.Get(IdempotencyHeader); key != "" {
		dedupKey = sm.tenant + "\x00" + m.Name() + "\x00" + key
		if resp, dup := s.ingestSeen.get(dedupKey); dup {
			s.metrics.IngestDeduped.Add(1)
			s.front.WriteJSON(w, http.StatusOK, resp)
			return
		}
	}
	// The engine applies the batch all or nothing: a batch that would
	// overflow its Definition-1 totals is refused whole (400 bad_data).
	if err := eng.AddBatch(rows, req.Errors, req.Timestamps); err != nil {
		s.front.Fail(w, err)
		return
	}
	s.metrics.IngestedRows.Add(int64(len(rows)))
	resp := ingestResponse{Ingested: len(rows), Count: eng.Count()}
	if dedupKey != "" {
		s.ingestSeen.put(dedupKey, resp)
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}
