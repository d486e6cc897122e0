package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"udm/internal/obs"
	"udm/internal/server"
	"udm/internal/stream"
	"udm/internal/udmerr"
)

// writeJSON answers v under status, the way a shard's front does.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// TestIngestRetryIdempotent covers the worst mutating-RPC failure mode:
// the shard applies the batch but the response is lost to a retryable
// transport error. The per-batch idempotency key must make the guarded
// retry safe — the shard acknowledges the duplicate from its dedup
// window instead of re-applying, so the stream model never
// double-counts a record.
func TestIngestRetryIdempotent(t *testing.T) {
	eng, err := stream.NewEngine(stream.Options{MicroClusters: 8, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	m, err := server.NewStreamModel("live", eng, testKDE, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	inner := server.New(reg, server.Options{}).Handler()
	// Sabotage exactly one ingest delivery: run the real handler (the
	// batch commits) but answer with a retryable error, as a connection
	// reset after commit would.
	var sabotaged atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/ingest") && sabotaged.CompareAndSwap(false, true) {
			inner.ServeHTTP(httptest.NewRecorder(), r)
			var lost server.ErrorBody
			lost.Error.Code, lost.Error.Message = "injected_fault", "response lost after apply"
			writeJSON(w, http.StatusBadGateway, lost)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewShardClient(0, Shard{Name: "primary", URL: ts.URL}, Options{
		RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
	}, obs.NewRegistry())

	rows := testRows(t, 20, 51)
	resp, err := c.Ingest(context.Background(), "live", server.IngestRequest{Points: rows})
	if err != nil {
		t.Fatalf("ingest with one lost response: %v", err)
	}
	if !sabotaged.Load() {
		t.Fatal("sabotage middleware never fired")
	}
	if resp.Ingested != len(rows) || resp.Count != len(rows) {
		t.Fatalf("ack ingested=%d count=%d, want %d/%d", resp.Ingested, resp.Count, len(rows), len(rows))
	}
	if eng.Count() != len(rows) {
		t.Fatalf("engine holds %d records after the retried batch, want %d (batch was re-applied)",
			eng.Count(), len(rows))
	}
}

// TestShardTimeoutRetried: a single slow attempt must not end the call.
// The attempt-local deadline is the shard's fault, not the caller's, so
// the guard's retry budget covers it while the caller's own deadline is
// still live.
func TestShardTimeoutRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // well past ShardTimeout
			return
		}
		writeJSON(w, http.StatusOK, server.DensityResponse{Densities: []float64{0.25}})
	}))
	t.Cleanup(ts.Close)
	c := NewShardClient(0, Shard{Name: "slow", URL: ts.URL}, Options{
		ShardTimeout: 40 * time.Millisecond,
		RetryBase:    time.Millisecond, RetryCap: 2 * time.Millisecond,
	}, obs.NewRegistry())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := c.Density(ctx, "live", server.DensityRequest{Points: [][]float64{{0, 0}}})
	if err != nil {
		t.Fatalf("density after one slow attempt: %v", err)
	}
	if len(out.Densities) != 1 || out.Densities[0] != 0.25 {
		t.Fatalf("densities = %v, want [0.25]", out.Densities)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("%d attempts, want at least 2 (slow attempt was not retried)", n)
	}
}

// TestShardTimeoutSentinel: with retries disabled, an attempt timeout
// surfaces as the retryable udmerr.ErrShardTimeout sentinel — never as
// the caller's own context error, which the retry and fan-out layers
// treat as "stop".
func TestShardTimeoutSentinel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	t.Cleanup(ts.Close)
	c := NewShardClient(0, Shard{Name: "hung", URL: ts.URL}, Options{
		ShardTimeout: 30 * time.Millisecond,
		RetryMax:     -1,
	}, obs.NewRegistry())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.Density(ctx, "live", server.DensityRequest{Points: [][]float64{{0, 0}}})
	if !errors.Is(err, udmerr.ErrShardTimeout) {
		t.Fatalf("error %v, want ErrShardTimeout", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("attempt timeout leaked a caller context error: %v", err)
	}
}
