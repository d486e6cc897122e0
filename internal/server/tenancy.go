package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"udm/internal/core"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/stream"
)

// This file is the multi-tenant control surface: tenant quotas and the
// staged → promote / rollback hot-swap endpoints. Tenant resolution
// and per-tenant fair-share admission live in the front (front.go);
// the data-plane handlers stay in handlers.go.

// TenantHeader names the tenant on un-namespaced paths and echoes the
// resolved tenant on every response — including sheds, so a client can
// tell "my quota" from "the server's capacity" without parsing bodies.
const TenantHeader = "X-UDM-Tenant"

// ModelVersionHeader echoes the activation generation of the model a
// response was computed against. Together with the atomic (model,
// generation) publication it gives clients — and the hot-swap
// atomicity test — a way to pin every answer to exactly one version.
const ModelVersionHeader = "X-UDM-Model-Version"

// KindHeader selects the artifact kind of a staged upload
// (PUT /v1/t/{tenant}/models/{model}); the ?kind= query parameter
// takes precedence.
const KindHeader = "X-UDM-Kind"

// Quota bounds one tenant's footprint. A zero field inherits the
// server-wide default (Options.TenantMax*); a negative field means
// unlimited.
type Quota struct {
	// MaxInflight caps the tenant's concurrently admitted /v1 requests.
	MaxInflight int
	// MaxModels caps the tenant's occupied registry slots (active or
	// staged).
	MaxModels int
	// MaxPoints caps the summarized source points resident across the
	// tenant's active models; ingest and staged uploads that would
	// exceed it are refused.
	MaxPoints int64
}

// quota resolves tenant's effective quota: per-tenant override fields
// first, tier-wide defaults for whatever they leave zero.
func (o Options) quota(tenant string) Quota {
	q := o.TenantQuotas[tenant]
	if q.MaxInflight == 0 {
		q.MaxInflight = o.TenantMaxInflight
	}
	if q.MaxModels == 0 {
		q.MaxModels = o.TenantMaxModels
	}
	if q.MaxPoints == 0 {
		q.MaxPoints = o.TenantMaxPoints
	}
	return q
}

// --- hot-swap lifecycle: PUT (stage), /promote, /rollback ---

type stageResponse struct {
	Model  string `json:"model"`
	Kind   Kind   `json:"kind"`
	Dims   int    `json:"dims"`
	Points int    `json:"points"`
	Staged bool   `json:"staged"`
}

type swapResponse struct {
	Model string `json:"model"`
	Gen   uint64 `json:"gen"`
}

// handleStage (PUT /v1/t/{tenant}/models/{model}) decodes the uploaded
// artifact (?kind=transform|summarizer|stream, or X-UDM-Kind) and
// installs it as the slot's staged version. Nothing is served from it
// until /promote; staging again replaces the staged version. Model
// construction uses the server's ModelKDE / ModelThreshold options, so
// a staged replacement evaluates under the same estimator policy as
// the model it will replace.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.front.Tenant(w, r)
	if !ok {
		return
	}
	name := r.PathValue("model")
	if !ValidIdent(name) {
		s.front.Error(w, http.StatusBadRequest, "bad_option",
			fmt.Sprintf("invalid model name %q (want 1-64 chars of [A-Za-z0-9._-])", name))
		return
	}
	kindName := r.URL.Query().Get("kind")
	if kindName == "" {
		kindName = r.Header.Get(KindHeader)
	}
	q := s.opt.quota(tenant)
	if q.MaxModels > 0 && !s.reg.Staged(tenant, name) {
		if _, exists := s.reg.Resolve(tenant, name); !exists && s.reg.ModelCount(tenant) >= q.MaxModels {
			s.front.Error(w, http.StatusTooManyRequests, "quota_exceeded",
				fmt.Sprintf("tenant %q is at its model quota (%d)", tenant, q.MaxModels))
			return
		}
	}
	var m *Model
	var err error
	switch Kind(kindName) {
	case KindTransform:
		var t *core.Transform
		if t, err = core.LoadTransform(r.Body); err == nil {
			m, err = NewTransformModel(name, t, core.ClassifierOptions{Threshold: s.opt.ModelThreshold, KDE: s.opt.ModelKDE})
		}
	case KindSummarizer:
		var sum *microcluster.Summarizer
		if sum, err = microcluster.Load(r.Body); err == nil {
			m, err = NewSummarizerModel(name, sum, s.opt.ModelKDE)
		}
	case KindStream:
		var eng *stream.Engine
		if eng, err = stream.LoadEngine(r.Body); err == nil {
			m, err = NewStreamModel(name, eng, s.opt.ModelKDE, "")
		}
	default:
		s.front.Error(w, http.StatusBadRequest, "bad_option",
			fmt.Sprintf("unknown model kind %q (want ?kind=transform|summarizer|stream)", kindName))
		return
	}
	if err != nil {
		s.front.Error(w, http.StatusBadRequest, "bad_artifact",
			fmt.Sprintf("decoding %s artifact: %v", kindName, err))
		return
	}
	if q.MaxPoints > 0 && s.reg.Points(tenant, name)+int64(m.Points()) > q.MaxPoints {
		s.front.Error(w, http.StatusTooManyRequests, "quota_exceeded",
			fmt.Sprintf("staging %d points would exceed tenant %q point quota (%d)", m.Points(), tenant, q.MaxPoints))
		return
	}
	if err := s.reg.Stage(tenant, name, m); err != nil {
		s.front.Error(w, http.StatusBadRequest, "bad_option", err.Error())
		return
	}
	s.metrics.SwapStaged.Inc()
	s.front.WriteJSON(w, http.StatusOK, stageResponse{Model: name, Kind: m.Kind(), Dims: m.Dims(), Points: m.Points(), Staged: true})
}

// handlePromote publishes the staged version atomically and retires
// the old version's batchers (in-flight pinned requests finish on them
// while new requests coalesce on the new version's batchers).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.handleSwap(w, r, s.reg.Promote, s.metrics.SwapPromotes, "no_staged")
}

// handleRollback republishes the previously active version under a
// fresh generation — the zero-downtime undo of a bad promote.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	s.handleSwap(w, r, s.reg.Rollback, s.metrics.SwapRollbacks, "no_previous")
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request,
	swap func(tenant, name string) (*servedModel, *servedModel, error), counter *obs.Counter, missingCode string) {
	tenant, ok := s.front.Tenant(w, r)
	if !ok {
		return
	}
	name := r.PathValue("model")
	now, old, err := swap(tenant, name)
	if err != nil {
		if errors.Is(err, ErrNoStaged) || errors.Is(err, ErrNoPrevious) {
			s.front.Error(w, http.StatusConflict, missingCode, err.Error())
			return
		}
		s.front.Fail(w, err)
		return
	}
	if old != nil {
		s.retire(old.m)
	}
	counter.Inc()
	w.Header().Set(ModelVersionHeader, strconv.FormatUint(now.gen, 10))
	s.front.WriteJSON(w, http.StatusOK, swapResponse{Model: name, Gen: now.gen})
}
