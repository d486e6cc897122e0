package server

import (
	"fmt"
	"net/http"
	"strconv"

	"udm/internal/kde"
	"udm/internal/udmerr"
)

// This file is the shard side of the distributed serving protocol
// (internal/distrib). A plain udmserve instance doubles as a shard:
// the coordinator pulls each shard's summary (GET .../summary) to
// build the merged estimator — and with it the global bandwidths and
// point count — then fans queries out as partial-term evaluations
// (POST .../partial) pinned to the version it pulled. Replicas join by
// pulling a checkpoint (GET .../checkpoint) and tailing deltas
// (GET .../tail). Everything rides the existing wire conventions:
// sentinel-derived error codes, the admission guard on the hot
// endpoint, and headers for out-of-band facts.

// VersionHeader carries the model version a summary or partial answer
// reflects (decimal uint64).
const VersionHeader = "X-UDM-Version"

// partialRequest is the fan-out wire shape: evaluate the per-cluster
// density terms of every point under the coordinator's global
// bandwidths, valid only at the pinned model version.
type partialRequest struct {
	Points [][]float64 `json:"points"`
	Dims   []int       `json:"dims,omitempty"`
	// Bandwidths are the coordinator's per-dimension global smoothing
	// parameters, computed over the merged summary; shards must
	// evaluate under these, not their local rule, for the merged answer
	// to be bit-identical to a single node's.
	Bandwidths []float64 `json:"bandwidths"`
	// Version pins the model version the coordinator merged. A shard
	// whose current version differs answers 409 stale_version and the
	// coordinator refreshes.
	Version uint64 `json:"version"`
}

// partialResponse carries one term vector per point (one term per
// local micro-cluster, in cluster order) plus the shard's summarized
// mass — the numerator of the coverage fraction under degradation.
type partialResponse struct {
	Terms   [][]float64 `json:"terms"`
	Weight  float64     `json:"weight"`
	Version uint64      `json:"version"`
}

// tailRecord is one raw record of a tail reply, JSON-encoded — Go's
// shortest-representation float64 marshaling round-trips exactly, so
// replaying these reproduces the primary's statistics to the bit.
type tailRecord struct {
	X   []float64 `json:"x"`
	Err []float64 `json:"err,omitempty"`
	TS  int64     `json:"ts"`
	Seq int64     `json:"seq"`
}

type tailResponse struct {
	Records []tailRecord `json:"records"`
	// Count is the engine's record count at reply time; a replica tails
	// again from its new count until it catches up.
	Count int64 `json:"count"`
}

// handleSummary streams the model's current micro-cluster summary
// (microcluster.Save wire form) with the reflected version in
// X-UDM-Version.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	sum, v, err := m.SummarySnapshot()
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	w.Header().Set(VersionHeader, strconv.FormatUint(v, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := sum.Save(w); err != nil {
		// Headers are gone; the client sees a truncated body and fails
		// its decode.
		s.metrics.Errors.Add(1)
	}
}

// handleCheckpoint streams a stream model's engine checkpoint
// (stream.Save wire form) — the first half of replica catch-up.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	eng := m.Engine()
	if eng == nil {
		s.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is a %s; /checkpoint needs a stream model", m.Name(), m.Kind()))
		return
	}
	w.Header().Set(VersionHeader, strconv.FormatUint(m.version(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := eng.Save(w); err != nil {
		s.metrics.Errors.Add(1)
	}
}

// handleTail serves the raw records ingested after ?from=N (a record
// ordinal, typically the count inside a just-pulled checkpoint) — the
// second half of replica catch-up. A window that no longer reaches
// back to N answers 410 tail_expired: the replica must restart from a
// fresh checkpoint.
func (s *Server) handleTail(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	eng := m.Engine()
	if eng == nil {
		s.front.Error(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is a %s; /tail needs a stream model", m.Name(), m.Kind()))
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from < 0 {
		s.front.Error(w, http.StatusBadRequest, "bad_option",
			fmt.Sprintf("tail needs ?from=N with a non-negative record ordinal, got %q", r.URL.Query().Get("from")))
		return
	}
	recs, ok := eng.TailSince(from)
	if !ok {
		s.front.Fail(w, fmt.Errorf("server: records after ordinal %d have aged out of the tail window; pull a fresh checkpoint: %w",
			from, udmerr.ErrTailExpired))
		return
	}
	resp := tailResponse{Records: make([]tailRecord, len(recs)), Count: int64(eng.Count())}
	for i, rec := range recs {
		resp.Records[i] = tailRecord{X: rec.X, Err: rec.Err, TS: rec.TS, Seq: rec.Seq}
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}

// handlePartial evaluates the per-cluster density terms of every
// requested point over the shard's local summary, under the
// coordinator's global bandwidths, pinned to the coordinator's model
// version. It runs under the same admission guard as /density.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.model(w, r)
	if !ok {
		return
	}
	m := sm.m
	var req partialRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if err := req.Validate(m.Name(), m.Dims()); err != nil {
		s.front.Fail(w, err)
		return
	}
	est, v, err := m.partialEstimator(req.Bandwidths)
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	if v != req.Version {
		s.front.Fail(w, fmt.Errorf("server: model %q is at version %d, fan-out pinned %d: %w",
			m.Name(), v, req.Version, udmerr.ErrStaleVersion))
		return
	}
	terms, err := est.PartialTermsBatch(req.Points, req.Dims, kde.BatchOptions{Ctx: r.Context(), Workers: s.opt.Workers})
	if err != nil {
		s.front.Fail(w, err)
		return
	}
	w.Header().Set(VersionHeader, strconv.FormatUint(v, 10))
	s.front.WriteJSON(w, http.StatusOK, partialResponse{
		Terms:   terms,
		Weight:  float64(est.Count()),
		Version: v,
	})
}
