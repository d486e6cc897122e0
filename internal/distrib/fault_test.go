package distrib

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/server"
	"udm/internal/stream"
)

// The fault tests arm the process-global injection registry, so they
// must not run in parallel with each other or with anything that
// issues shard RPCs. None of them call t.Parallel.

func postRaw(t testing.TB, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// degradedExpectation recomputes what the proxy must answer with shard
// 0 dead: bandwidths from the full (pre-failure) merged head, each
// survivor's terms under those bandwidths, one sequential sum in shard
// index order, divided by the surviving mass.
func degradedExpectation(t testing.TB, engines []*stream.Engine, queries [][]float64) (dens []float64, coverage float64) {
	t.Helper()
	sums := make([]*microcluster.Summarizer, len(engines))
	for i, eng := range engines {
		s, err := eng.Summarizer()
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = s
	}
	merged, err := microcluster.MergeSummarizers(sums...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := kde.NewCluster(merged, testKDE)
	if err != nil {
		t.Fatal(err)
	}
	bw := make([]float64, merged.Dims())
	for j := range bw {
		bw[j] = full.BandwidthFor(j)
	}
	opt := testKDE
	opt.Bandwidths = bw
	live := make([]*kde.ClusterKDE, 0, len(engines)-1)
	liveW := 0.0
	for _, s := range sums[1:] { // shard 0 is the dead one
		est, err := kde.NewCluster(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, est)
		liveW += float64(s.Count())
	}
	total := float64(merged.Count())
	dens = make([]float64, len(queries))
	terms := make([][][]float64, len(live))
	for i, est := range live {
		if terms[i], err = est.PartialTermsBatch(queries, nil, kde.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for p := range queries {
		sum := 0.0
		for i := range live {
			for _, term := range terms[i][p] {
				sum += term
			}
		}
		dens[p] = sum / liveW
	}
	return dens, liveW / total
}

// TestFaultShardKilledMidQuery is the fault-matrix acceptance check:
// three in-process shards behind a proxy, shard 0 killed mid-query via
// the distrib.shard.rpc fault site (retries off, breaker threshold 1),
// and the fan-out must answer 200 with the X-UDM-Degraded header, the
// exact surviving-mass coverage fraction, and densities renormalized
// over the survivors. A follow-up query with no fault armed stays
// degraded because shard 0's breaker is open.
func TestFaultShardKilledMidQuery(t *testing.T) {
	engines := splitEngines(t, testRows(t, 450, 17), 3)
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{
		FanoutWorkers:    1,  // serial scatter: shard 0's RPC is the first attempt
		RetryMax:         -1, // the injected failure must not be retried away
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	queries := testQueries(9, 21)
	req := server.DensityRequest{Points: queries}
	// Prime the head while everything is healthy.
	status, hdr, raw := postRaw(t, px.URL+"/v1/models/live/density", req)
	if status != 200 {
		t.Fatalf("healthy query status %d: %s", status, raw)
	}
	if hdr.Get("X-UDM-Degraded") != "" {
		t.Fatal("healthy answer carries the degraded header")
	}

	if err := faultinject.Arm("distrib.shard.rpc", faultinject.Spec{Err: true, Times: 1}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	status, hdr, raw = postRaw(t, px.URL+"/v1/models/live/density", req)
	if status != 200 {
		t.Fatalf("degraded query status %d: %s", status, raw)
	}
	if got := hdr.Get("X-UDM-Degraded"); got != "partial" {
		t.Fatalf("X-UDM-Degraded = %q, want %q", got, "partial")
	}
	var resp server.DensityResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	wantDens, wantCov := degradedExpectation(t, engines, queries)
	if math.Float64bits(resp.Coverage) != math.Float64bits(wantCov) {
		t.Fatalf("coverage %v, want %v", resp.Coverage, wantCov)
	}
	bitsEqual(t, "degraded densities", resp.Densities, wantDens)
	if fired := faultinject.Fired("distrib.shard.rpc"); fired != 1 {
		t.Fatalf("fault site fired %d times, want 1", fired)
	}
	if p.Metrics().Degraded.Load() == 0 {
		t.Fatal("udm_proxy_degraded_total not incremented")
	}

	// The plan is spent (Times: 1), but shard 0's breaker is open: the
	// next fan-out must still answer degraded with the same coverage.
	status, hdr, raw = postRaw(t, px.URL+"/v1/models/live/density", req)
	if status != 200 {
		t.Fatalf("post-fault query status %d: %s", status, raw)
	}
	if hdr.Get("X-UDM-Degraded") != "partial" {
		t.Fatal("breaker-open answer not marked degraded")
	}
	var again server.DensityResponse
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.Coverage) != math.Float64bits(wantCov) {
		t.Fatalf("breaker-open coverage %v, want %v", again.Coverage, wantCov)
	}
	bitsEqual(t, "breaker-open densities", again.Densities, wantDens)
}

// TestFaultAllShardsDown: every shard failing yields 503 "degraded",
// not a partial answer from nothing.
func TestFaultAllShardsDown(t *testing.T) {
	engines := splitEngines(t, testRows(t, 200, 29), 2)
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{
		FanoutWorkers: 1,
		RetryMax:      -1, BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	req := server.DensityRequest{Points: testQueries(4, 2)}
	if status, _, raw := postRaw(t, px.URL+"/v1/models/live/density", req); status != 200 {
		t.Fatalf("healthy query status %d: %s", status, raw)
	}
	if err := faultinject.Arm("distrib.shard.rpc", faultinject.Spec{Err: true}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	status, _, raw := postRaw(t, px.URL+"/v1/models/live/density", req)
	if status != 503 {
		t.Fatalf("all-shards-down status %d: %s", status, raw)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "degraded" {
		t.Fatalf("error code %q, want %q", eb.Error.Code, "degraded")
	}
}
