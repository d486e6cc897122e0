package server

import (
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"udm/internal/kde"
)

// TestSustainedConcurrentClients is the acceptance load test: 64
// simultaneous clients hammer classify and density over a shared probe
// set, and every served answer must be bit-identical to the direct
// library call. Run under -race in CI; per-request latency quantiles
// land in the test log (and EXPERIMENTS.md records a reference run).
func TestSustainedConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Probe set + ground truth from direct library calls.
	const probes = 32
	pts := make([][]float64, probes)
	for i := range pts {
		pts[i] = []float64{-3 + 6*float64(i)/probes, 0.5 - float64(i%3)/2}
	}
	m, _ := s.reg.Get("blobs")
	wantLabels, err := m.Classifier().ClassifyBatch(pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := m.estimator()
	if err != nil {
		t.Fatal(err)
	}
	wantDensity, err := kde.DensityBatchOpts(est, pts, nil, kde.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const perClient = 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := (c*perClient + i) % probes
				if (c+i)%2 == 0 {
					var resp classifyResponse
					if status := postJSON(t, ts.URL+"/v1/models/blobs/classify",
						map[string]any{"point": pts[p]}, &resp); status != 200 {
						t.Errorf("client %d: classify = %d", c, status)
						continue
					}
					if resp.Label == nil || *resp.Label != wantLabels[p] {
						t.Errorf("client %d probe %d: served label %v, want %d", c, p, resp.Label, wantLabels[p])
					}
				} else {
					var resp densityResponse
					if status := postJSON(t, ts.URL+"/v1/models/blobs/density",
						map[string]any{"point": pts[p]}, &resp); status != 200 {
						t.Errorf("client %d: density = %d", c, status)
						continue
					}
					if resp.Density == nil ||
						math.Float64bits(*resp.Density) != math.Float64bits(wantDensity[p]) {
						t.Errorf("client %d probe %d: served density %v, want bit-identical %v",
							c, p, resp.Density, wantDensity[p])
					}
				}
			}
		}()
	}
	wg.Wait()

	snap := s.metrics.snapshot()
	if shed := snap["shed"].(int64); shed != 0 {
		t.Errorf("%d requests shed under the default inflight limit", shed)
	}
	if errs := snap["errors"].(int64); errs != 0 {
		t.Errorf("%d error responses during the load run", errs)
	}
	t.Logf("load: %d clients × %d reqs — p50=%dµs p90=%dµs p99=%dµs, avg batch %.1f, cache hit rate %.2f",
		clients, perClient,
		snap["latency_p50_us"], snap["latency_p90_us"], snap["latency_p99_us"],
		snap["avg_batch_size"], snap["cache_hit_rate"])
}
