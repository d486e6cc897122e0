package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/rng"
	"udm/internal/stream"
	"udm/internal/udmerr"
	"udm/internal/uncertain"
)

// testTransform builds a small trained transform shared by the tests.
func testTransform(t testing.TB) *core.Transform {
	t.Helper()
	clean, err := datagen.TwoBlobs(2.5).Generate(400, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, 1.0, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransform(noisy, core.TransformOptions{
		MicroClusters: 40, ErrorAdjust: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testEngine builds a stream engine seeded with a few hundred rows.
func testEngine(t testing.TB) *stream.Engine {
	t.Helper()
	clean, err := datagen.TwoBlobs(2.5).Generate(300, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Options{MicroClusters: 20, Dims: clean.Dims()})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range clean.X {
		eng.Add(x, nil, int64(i+1))
	}
	return eng
}

// testServer wires a transform model ("blobs") and a stream model
// ("live", checkpointing into dir when non-empty) behind a Server.
func testServer(t testing.TB, opt Options, checkpointDir string) *Server {
	t.Helper()
	reg := NewRegistry()
	tm, err := NewTransformModel("blobs", testTransform(t), core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(tm); err != nil {
		t.Fatal(err)
	}
	path := ""
	if checkpointDir != "" {
		path = filepath.Join(checkpointDir, "live.gob")
	}
	sm, err := NewStreamModel("live", testEngine(t), kde.Options{ErrorAdjust: true}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(sm); err != nil {
		t.Fatal(err)
	}
	return New(reg, opt)
}

// postJSON marshals body, POSTs it, and decodes the response into out,
// returning the status code.
func postJSON(t testing.TB, url string, body, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func errCode(t testing.TB, url string, body any) (int, string) {
	t.Helper()
	var e errorBody
	status := postJSON(t, url, body, &e)
	return status, e.Error.Code
}

func TestHealthAndIntrospection(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	var models struct {
		Models []modelInfo `json:"models"`
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models.Models) != 2 {
		t.Fatalf("listed %d models, want 2", len(models.Models))
	}
	if models.Models[0].Name != "blobs" || models.Models[0].Kind != KindTransform {
		t.Errorf("model[0] = %+v, want blobs/transform", models.Models[0])
	}
	if models.Models[1].Name != "live" || models.Models[1].Count != 300 {
		t.Errorf("model[1] = %+v, want live with 300 rows", models.Models[1])
	}

	var metrics map[string]any
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"requests", "shed", "batch_flushes", "cache_hit_rate", "latency_p99_us"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

func TestClassifyEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/classify"

	clf, _ := s.reg.Get("blobs")
	x := []float64{-2.5, 0}
	want, err := clf.Classifier().Classify(x)
	if err != nil {
		t.Fatal(err)
	}

	var single classifyResponse
	if status := postJSON(t, url, map[string]any{"point": x}, &single); status != 200 {
		t.Fatalf("single classify = %d, want 200", status)
	}
	if single.Label == nil || *single.Label != want {
		t.Errorf("served label = %v, want %d", single.Label, want)
	}

	var multi classifyResponse
	if status := postJSON(t, url, map[string]any{"points": [][]float64{x, {2.5, 0}}}, &multi); status != 200 {
		t.Fatalf("multi classify = %d, want 200", status)
	}
	if len(multi.Labels) != 2 || multi.Labels[0] != want {
		t.Errorf("served labels = %v, want leading %d", multi.Labels, want)
	}
}

func TestEndpointErrors(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		url    string
		body   any
		status int
		code   string
	}{
		{"unknown model", "/v1/models/nope/classify", map[string]any{"point": []float64{0, 0}}, 404, "model_not_found"},
		{"dim mismatch", "/v1/models/blobs/classify", map[string]any{"point": []float64{1, 2, 3}}, 400, "dimension_mismatch"},
		{"dim mismatch batch", "/v1/models/blobs/density", map[string]any{"points": [][]float64{{1, 2}, {3}}}, 400, "dimension_mismatch"},
		{"bad subspace dim", "/v1/models/blobs/density", map[string]any{"point": []float64{1, 2}, "dims": []int{7}}, 400, "dimension_mismatch"},
		{"empty request", "/v1/models/blobs/classify", map[string]any{}, 400, "bad_option"},
		{"classify on stream", "/v1/models/live/classify", map[string]any{"point": []float64{0, 0}}, 400, "unsupported_kind"},
		{"ingest on transform", "/v1/models/blobs/ingest", map[string]any{"points": [][]float64{{0, 0}}}, 400, "unsupported_kind"},
		{"mismatched error rows", "/v1/models/live/ingest", map[string]any{
			"points": [][]float64{{0, 0}}, "errors": [][]float64{{0.1, 0.1}, {0.2, 0.2}},
		}, 400, "dimension_mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := errCode(t, ts.URL+tc.url, tc.body)
			if status != tc.status || code != tc.code {
				t.Errorf("got %d/%q, want %d/%q", status, code, tc.status, tc.code)
			}
		})
	}

	// Malformed JSON (not expressible via postJSON's marshal).
	resp, err := http.Post(ts.URL+"/v1/models/blobs/classify", "application/json",
		bytes.NewReader([]byte(`{"point": [1,`)))
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || e.Error.Code != "malformed_json" {
		t.Errorf("malformed JSON: got %d/%q, want 400/malformed_json", resp.StatusCode, e.Error.Code)
	}
}

func TestDensityCacheAndBitIdentity(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"

	m, _ := s.reg.Get("blobs")
	est, _, err := m.estimator()
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{-1.5, 0.5}
	direct, err := kde.DensityBatchOpts(est, [][]float64{x}, nil, kde.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var first, second densityResponse
	if status := postJSON(t, url, map[string]any{"point": x}, &first); status != 200 {
		t.Fatalf("density = %d, want 200", status)
	}
	if first.Cached {
		t.Error("first query reported cached=true")
	}
	if *first.Density != direct[0] {
		t.Errorf("served density %v != direct %v (must be bit-identical)", *first.Density, direct[0])
	}
	if status := postJSON(t, url, map[string]any{"point": x}, &second); status != 200 {
		t.Fatalf("density = %d, want 200", status)
	}
	if !second.Cached {
		t.Error("repeat query not served from cache")
	}
	if *second.Density != direct[0] {
		t.Errorf("cached density %v != direct %v", *second.Density, direct[0])
	}
	if hits := s.metrics.CacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// Subspace densities bypass coalescing but still go through the
	// cache and must match direct calls too.
	sub, err := kde.DensityBatchOpts(est, [][]float64{x}, []int{0}, kde.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var subResp densityResponse
	if status := postJSON(t, url, map[string]any{"point": x, "dims": []int{0}}, &subResp); status != 200 {
		t.Fatalf("subspace density = %d, want 200", status)
	}
	if *subResp.Density != sub[0] {
		t.Errorf("subspace density %v != direct %v", *subResp.Density, sub[0])
	}
}

func TestDensityAccuracyModes(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"

	post := func(body any) (*http.Response, densityResponse) {
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
		var out densityResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	x := []float64{-1.5, 0.5}
	exactResp, exact := post(map[string]any{"point": x})
	if exactResp.StatusCode != 200 {
		t.Fatalf("exact density = %d, want 200", exactResp.StatusCode)
	}
	if got := exactResp.Header.Get("X-UDM-Accuracy"); got != "exact" {
		t.Errorf("X-UDM-Accuracy = %q, want \"exact\"", got)
	}

	const eps = 1e-6
	approxResp, approx := post(map[string]any{"point": x, "accuracy": "approx", "epsilon": eps})
	if approxResp.StatusCode != 200 {
		t.Fatalf("approx density = %d, want 200", approxResp.StatusCode)
	}
	if got := approxResp.Header.Get("X-UDM-Accuracy"); got != "approx(1e-06)" {
		t.Errorf("X-UDM-Accuracy = %q, want \"approx(1e-06)\"", got)
	}
	// The approx answer must honor the relative-error contract, and must
	// not have been served from the exact query's cache entry: the exact
	// point was just cached, so a shared key would return cached=true.
	if approx.Cached {
		t.Error("approx query hit the exact cache entry (accuracy missing from key)")
	}
	rel := (*approx.Density - *exact.Density) / *exact.Density
	if rel < -eps || rel > eps {
		t.Errorf("approx density %v vs exact %v: rel error %v exceeds %v",
			*approx.Density, *exact.Density, rel, eps)
	}

	// Repeat approx query hits its own cache entry.
	if _, again := post(map[string]any{"point": x, "accuracy": "approx", "epsilon": eps}); !again.Cached {
		t.Error("repeat approx query not served from cache")
	}

	// Batch requests honor the mode too.
	batchResp, batch := post(map[string]any{
		"points": [][]float64{x, {2.0, 0.0}}, "accuracy": "approx",
	})
	if batchResp.StatusCode != 200 || len(batch.Densities) != 2 {
		t.Fatalf("approx batch = %d with %d densities", batchResp.StatusCode, len(batch.Densities))
	}
	rel = (batch.Densities[0] - *exact.Density) / *exact.Density
	if rel < -eps || rel > eps {
		t.Errorf("approx batch density %v vs exact %v: rel error %v", batch.Densities[0], *exact.Density, rel)
	}

	// "approx" with no epsilon defaults rather than failing.
	defResp, _ := post(map[string]any{"point": x, "accuracy": "approx"})
	if defResp.StatusCode != 200 || defResp.Header.Get("X-UDM-Accuracy") != "approx(1e-06)" {
		t.Errorf("default-epsilon approx: %d / %q", defResp.StatusCode, defResp.Header.Get("X-UDM-Accuracy"))
	}

	for _, bad := range []map[string]any{
		{"point": x, "accuracy": "fast"},
		{"point": x, "accuracy": "approx", "epsilon": -1.0},
		{"point": x, "accuracy": "exact", "epsilon": 0.5},
	} {
		status, code := errCode(t, url, bad)
		if status != 400 || code != "bad_option" {
			t.Errorf("accuracy %v: got %d/%q, want 400/bad_option", bad, status, code)
		}
	}
}

func TestOutliersEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One blatant outlier among inliers, scored against each model kind.
	queries := [][]float64{{-2.5, 0}, {2.5, 0}, {-2.3, 0.2}, {2.2, -0.1}, {40, 40}}
	for _, model := range []string{"blobs", "live"} {
		var resp outliersResponse
		status := postJSON(t, ts.URL+"/v1/models/"+model+"/outliers",
			map[string]any{"points": queries, "contamination": 0.2}, &resp)
		if status != 200 {
			t.Fatalf("%s outliers = %d, want 200", model, status)
		}
		if len(resp.Scores) != len(queries) || len(resp.Outliers) != len(queries) {
			t.Fatalf("%s: got %d scores / %d flags, want %d", model, len(resp.Scores), len(resp.Outliers), len(queries))
		}
		if !resp.Outliers[4] {
			t.Errorf("%s: the far point was not flagged (scores %v)", model, resp.Scores)
		}
	}
}

func TestIngestAdvancesModel(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m, _ := s.reg.Get("live")
	before := m.Engine().Count()

	// Densities before and after ingesting a tight far-away clump must
	// differ: ingest must both update the engine and retire the cache.
	probe := map[string]any{"point": []float64{30, 30}}
	var d0 densityResponse
	if status := postJSON(t, ts.URL+"/v1/models/live/density", probe, &d0); status != 200 {
		t.Fatalf("density = %d, want 200", status)
	}

	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{30 + float64(i%5)/10, 30 - float64(i%7)/10}
	}
	var ing ingestResponse
	if status := postJSON(t, ts.URL+"/v1/models/live/ingest", map[string]any{"points": rows}, &ing); status != 200 {
		t.Fatalf("ingest = %d, want 200", status)
	}
	if ing.Ingested != 50 || ing.Count != before+50 {
		t.Errorf("ingest response %+v, want 50 ingested, count %d", ing, before+50)
	}

	var d1 densityResponse
	if status := postJSON(t, ts.URL+"/v1/models/live/density", probe, &d1); status != 200 {
		t.Fatalf("density = %d, want 200", status)
	}
	if d1.Cached {
		t.Error("post-ingest density served from stale cache")
	}
	if *d1.Density <= *d0.Density {
		t.Errorf("density at ingested clump did not rise: %v -> %v", *d0.Density, *d1.Density)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := testServer(t, Options{RequestTimeout: time.Nanosecond}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, code := errCode(t, ts.URL+"/v1/models/blobs/classify", map[string]any{"point": []float64{0, 0}})
	if status != http.StatusGatewayTimeout || code != "timeout" {
		t.Errorf("got %d/%q, want 504/timeout", status, code)
	}
	if s.metrics.Timeouts.Load() == 0 {
		t.Error("timeout not counted in metrics")
	}
}

func TestLoadShedding(t *testing.T) {
	// One admission slot and a stalled batch flush: the first classify
	// parks inside the batcher holding the slot, so the second request
	// must be shed with 429.
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Delay: 800 * time.Millisecond, Times: 1}); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Options{MaxInflight: 1}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/classify"
	body := map[string]any{"point": []float64{0, 0}}

	firstDone := make(chan int, 1)
	go func() {
		var resp classifyResponse
		firstDone <- postJSON(t, url, body, &resp)
	}()
	waitFor(t, "the first request to stall in its batch flush", func() bool { return flushFault.Hits() == 1 })

	status, code := errCode(t, url, body)
	if status != http.StatusTooManyRequests || code != "overloaded" {
		t.Errorf("second request got %d/%q, want 429/overloaded", status, code)
	}
	if s.metrics.Shed.Load() == 0 {
		t.Error("shed not counted in metrics")
	}
	if status := <-firstDone; status != 200 {
		t.Errorf("parked first request finished with %d, want 200", status)
	}
}

func TestGracefulShutdown(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	s := testServer(t, Options{}, dir)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	// Ingest a little so the checkpoint provably reflects served writes.
	var ing ingestResponse
	if status := postJSON(t, url+"/v1/models/live/ingest",
		map[string]any{"points": [][]float64{{1, 1}, {2, 2}}}, &ing); status != 200 {
		t.Fatalf("ingest = %d, want 200", status)
	}

	// Park one classify in a batch flush stalled for 300ms, then shut
	// down: the in-flight request must complete with 200, not be cut.
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Delay: 300 * time.Millisecond, Times: 1}); err != nil {
		t.Fatal(err)
	}
	inflight := make(chan int, 1)
	go func() {
		var resp classifyResponse
		inflight <- postJSON(t, url+"/v1/models/blobs/classify",
			map[string]any{"point": []float64{0, 0}}, &resp)
	}()
	waitFor(t, "the request to stall in its batch flush", func() bool { return flushFault.Hits() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status := <-inflight; status != 200 {
		t.Errorf("in-flight request finished with %d, want 200", status)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// Readiness flipped before the listener closed.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /readyz = %d, want 503", rec.Code)
	}

	// The stream engine was checkpointed, including the served ingest.
	f, err := os.Open(filepath.Join(dir, "live.gob"))
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	defer f.Close()
	eng, err := stream.LoadEngine(f)
	if err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	if eng.Count() != 302 {
		t.Errorf("checkpoint has %d rows, want 302 (300 seeded + 2 ingested)", eng.Count())
	}
}

// TestShutdownBeforeServe: a Shutdown that runs before Serve (a
// SIGTERM that beats the serve goroutine) still stops the server —
// Serve returns http.ErrServerClosed at once.
func TestShutdownBeforeServe(t *testing.T) {
	s := testServer(t, Options{}, "")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still running 2s after Shutdown returned")
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("x: %w", context.DeadlineExceeded), 504, "timeout"},
		{fmt.Errorf("x: %w", context.Canceled), StatusClientClosedRequest, "client_closed_request"},
		{fmt.Errorf("x: %w", udmerr.ErrDimensionMismatch), 400, "dimension_mismatch"},
		{fmt.Errorf("x: %w", udmerr.ErrBadOption), 400, "bad_option"},
		{fmt.Errorf("x: %w", udmerr.ErrNoErrors), 400, "no_errors"},
		{fmt.Errorf("x: %w", udmerr.ErrBadData), 400, "bad_data"},
		{fmt.Errorf("x: %w", udmerr.ErrUntrained), 409, "untrained"},
		{errors.New("anything else"), 500, "internal"},
	}
	for _, tc := range cases {
		status, code := statusFor(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("statusFor(%v) = %d/%q, want %d/%q", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// TestConcurrentClassifyAndIngest hammers a stream model with parallel
// density reads and ingest writes plus transform classifies — the
// race-detector test of the serving path's synchronization.
func TestConcurrentClassifyAndIngest(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (w + i) % 3 {
				case 0:
					var resp classifyResponse
					if status := postJSON(t, ts.URL+"/v1/models/blobs/classify",
						map[string]any{"point": []float64{float64(i) - 2, 0}}, &resp); status != 200 {
						t.Errorf("classify = %d", status)
					}
				case 1:
					var resp densityResponse
					if status := postJSON(t, ts.URL+"/v1/models/live/density",
						map[string]any{"point": []float64{float64(i%5) - 2, 0}}, &resp); status != 200 {
						t.Errorf("density = %d", status)
					}
				case 2:
					var resp ingestResponse
					if status := postJSON(t, ts.URL+"/v1/models/live/ingest",
						map[string]any{"points": [][]float64{{float64(w), float64(i)}}}, &resp); status != 200 {
						t.Errorf("ingest = %d", status)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := s.metrics.Requests.Load(); got != workers*15 {
		t.Errorf("request counter = %d, want %d", got, workers*15)
	}
}

// TestUnencodableDensityAnswers500: a body JSON cannot carry (a NaN
// density) answers 500 internal in the error envelope and counts the
// error, never a 200 with an empty body. An ingest can no longer
// poison a model into answering NaN — the huge value that once
// overflowed a stream model's Definition-1 sums is refused with 400
// bad_data — and a poisoned summary cannot build an estimator, so the
// encoder is driven directly.
func TestUnencodableDensityAnswers500(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, code := errCode(t, ts.URL+"/v1/models/live/ingest",
		map[string]any{"points": [][]float64{{1e200, 1e200}}}); status != http.StatusBadRequest || code != "bad_data" {
		t.Fatalf("poisoning ingest = %d %q, want 400 bad_data", status, code)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		body densityResponse
	}{
		{"single", densityResponse{Density: &nan, Densities: []float64{nan}}},
		{"batch", densityResponse{Densities: []float64{nan, 0.5}}},
	} {
		before := s.metrics.Errors.Load()
		rec := httptest.NewRecorder()
		s.front.WriteJSON(rec, http.StatusOK, tc.body)
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || e.Error.Code != "internal" || e.Error.Message == "" {
			t.Errorf("%s: got %d %+v, want 500 with an internal error envelope", tc.name, rec.Code, e)
		}
		if got := s.metrics.Errors.Load(); got != before+1 {
			t.Errorf("%s: errors counter moved %d → %d, want one more", tc.name, before, got)
		}
	}
}

// TestIngestPoisonedBatchAppliesNothing: a batch that would overflow a
// Definition-1 sum is refused whole with 400 bad_data — by the wire
// validator when the batch alone overflows, by the engine when it
// would overflow the model's running totals — and none of its records
// land: the count is unchanged and the next density is bit-identical
// to the density before.
func TestIngestPoisonedBatchAppliesNothing(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/live/"
	probe := map[string]any{"points": [][]float64{{0.5, 0.5}, {-1, 2}, {3, -0.5}}}
	var before densityResponse
	if st := postJSON(t, url+"density", probe, &before); st != http.StatusOK {
		t.Fatalf("density before: %d", st)
	}
	liveCount := func() int {
		m, _ := s.reg.Get("live")
		return m.Engine().Count()
	}
	count := liveCount()
	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"huge value", map[string]any{"points": [][]float64{{0.5, 0.5}, {1e200, 1}, {1, 1}}}},
		{"huge error", map[string]any{"points": [][]float64{{0.5, 0.5}, {1, 1}},
			"errors": [][]float64{{0.1, 0.1}, {0.1, 1e200}}}},
		{"column overflow", map[string]any{"points": [][]float64{{0.5, 0.5}, {1.3e154, 0}, {1.3e154, 0}}}},
	} {
		if st, code := errCode(t, url+"ingest", tc.body); st != http.StatusBadRequest || code != "bad_data" {
			t.Errorf("%s: ingest -> %d %q, want 400 bad_data", tc.name, st, code)
		}
		if got := liveCount(); got != count {
			t.Errorf("%s: count moved %d → %d, want no record applied", tc.name, count, got)
		}
	}
	var after densityResponse
	if st := postJSON(t, url+"density", probe, &after); st != http.StatusOK {
		t.Fatalf("density after: %d", st)
	}
	for i := range before.Densities {
		if math.Float64bits(after.Densities[i]) != math.Float64bits(before.Densities[i]) {
			t.Errorf("density %d moved %v → %v after refused ingests", i, before.Densities[i], after.Densities[i])
		}
	}

	// Each batch alone passes the wire check; the second would push the
	// model's total CF2x past MaxFloat64, so the engine refuses it.
	huge := map[string]any{"points": [][]float64{{1.3e154, 0}}}
	if st := postJSON(t, url+"ingest", huge, nil); st != http.StatusOK {
		t.Fatalf("first huge ingest: %d, want 200", st)
	}
	if st, code := errCode(t, url+"ingest", huge); st != http.StatusBadRequest || code != "bad_data" {
		t.Errorf("totals overflow: ingest -> %d %q, want 400 bad_data", st, code)
	}
	if got := liveCount(); got != count+1 {
		t.Errorf("count = %d after the refused batch, want %d", got, count+1)
	}
}

// TestOutliersRequestTimeout: /outliers honours the request deadline
// like the other evaluation endpoints.
func TestOutliersRequestTimeout(t *testing.T) {
	s := testServer(t, Options{RequestTimeout: time.Nanosecond}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := map[string]any{"points": [][]float64{{0, 0}, {5, 5}}}
	if status, code := errCode(t, ts.URL+"/v1/models/live/outliers", body); status != http.StatusGatewayTimeout || code != "timeout" {
		t.Errorf("outliers got %d/%q, want 504/timeout", status, code)
	}
}

// TestEmptyStreamModelUntrained: a stream model whose engine holds no
// records yet answers 409 untrained, a client-side condition, and
// serves at once after its first ingest — nothing from the empty
// period lingers.
func TestEmptyStreamModelUntrained(t *testing.T) {
	eng, err := stream.NewEngine(stream.Options{MicroClusters: 20, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewStreamModel("empty", eng, kde.Options{ErrorAdjust: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}).Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/empty/"

	batch := map[string]any{"points": [][]float64{{0, 0}, {1, 1}}}
	for i := 0; i < 2; i++ {
		if status, code := errCode(t, url+"density", batch); status != http.StatusConflict || code != "untrained" {
			t.Fatalf("density %d on an empty model -> %d %q, want 409 untrained", i, status, code)
		}
	}
	rows := [][]float64{{0.5, 0.5}, {1, 1.5}, {-1, 0}, {2, -1}, {0, 2}, {-0.5, -1.5}}
	if st := postJSON(t, url+"ingest", map[string]any{"points": rows}, nil); st != http.StatusOK {
		t.Fatalf("ingest: %d", st)
	}
	for _, body := range []map[string]any{batch, {"point": []float64{0, 0}}} {
		var resp densityResponse
		if st := postJSON(t, url+"density", body, &resp); st != http.StatusOK || len(resp.Densities) == 0 {
			t.Fatalf("density %v after the first ingest -> %d %+v, want 200", body, st, resp)
		}
	}
}
