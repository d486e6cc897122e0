package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udm/internal/faultinject"
	"udm/internal/stream"
	"udm/internal/udmerr"
)

// resilientOptions are the fault-matrix defaults: no wall-clock retry
// sleeps worth noticing, and a two-failure breaker so tests trip it
// quickly.
func resilientOptions() Options {
	return Options{
		RetryBase:        50 * time.Microsecond,
		RetryCap:         200 * time.Microsecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // tests advance a fake clock instead
	}
}

// postRaw posts body and returns (status, headers, raw body) — the
// bit-identity assertions compare exact bytes, not decoded floats.
func postRaw(t testing.TB, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(raw)
}

// TestFaultRetryIsTransparent: one injected transient eval failure is
// absorbed by the retry layer — the client sees a 200 whose body is
// byte-identical to a server that never faulted.
func TestFaultRetryIsTransparent(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	clean := testServer(t, resilientOptions(), "")
	faulty := testServer(t, resilientOptions(), "")
	tsClean := httptest.NewServer(clean.Handler())
	defer tsClean.Close()
	tsFaulty := httptest.NewServer(faulty.Handler())
	defer tsFaulty.Close()

	for _, req := range []struct{ path, body string }{
		{"/v1/models/blobs/density", `{"point":[0.5,-0.25]}`},
		{"/v1/models/blobs/density", `{"points":[[0.5,-0.25],[1,1],[-2,0.5]]}`},
		{"/v1/models/blobs/classify", `{"point":[0.5,-0.25]}`},
		{"/v1/models/blobs/classify", `{"points":[[3,0],[-3,0]]}`},
		{"/v1/models/blobs/outliers", `{"points":[[0,0],[50,50]]}`},
	} {
		faultinject.Reset()
		wantStatus, _, wantBody := postRaw(t, tsClean.URL+req.path, req.body)
		if wantStatus != http.StatusOK {
			t.Fatalf("clean server: %s -> %d %s", req.path, wantStatus, wantBody)
		}
		// One transient failure on the next evaluation.
		if err := faultinject.Arm("server.model.eval", faultinject.Spec{Times: 1}); err != nil {
			t.Fatal(err)
		}
		gotStatus, _, gotBody := postRaw(t, tsFaulty.URL+req.path, req.body)
		if gotStatus != http.StatusOK {
			t.Fatalf("faulty server: %s -> %d %s", req.path, gotStatus, gotBody)
		}
		if gotBody != wantBody {
			t.Fatalf("%s %s: recovered response diverged:\n  clean:  %s\n  faulty: %s", req.path, req.body, wantBody, gotBody)
		}
	}
	if got := faulty.Metrics().Retries.Load(); got == 0 {
		t.Error("udm_retry_total stayed 0 across five recovered faults")
	}
	if got := clean.Metrics().Retries.Load(); got != 0 {
		t.Errorf("clean server retried %d times", got)
	}
}

// TestFaultExhaustedRetriesSurface: a persistently-failing evaluation
// exhausts the retry budget and surfaces as 502 injected_fault, with
// errors.Is-able sentinel mapping.
func TestFaultExhaustedRetriesSurface(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := resilientOptions()
	opt.RetryMax = 1
	opt.BreakerThreshold = -1 // isolate the retry layer
	s := testServer(t, opt, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := faultinject.Arm("server.model.eval", faultinject.Spec{}); err != nil {
		t.Fatal(err)
	}
	status, code := errCode(t, ts.URL+"/v1/models/blobs/classify", map[string]any{"points": [][]float64{{1, 1}}})
	if status != http.StatusBadGateway || code != "injected_fault" {
		t.Fatalf("persistent eval fault -> %d %q, want 502 injected_fault", status, code)
	}
	// 1 original attempt + 1 retry, each consuming one fault firing.
	if fired := faultinject.Fired("server.model.eval"); fired != 2 {
		t.Errorf("eval site fired %d times, want 2 (attempt + 1 retry)", fired)
	}
}

// TestFaultBatcherFlush: a fault at the flush site fails the whole
// coalesced batch; the waiter sees 502 injected_fault.
func TestFaultBatcherFlush(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := testServer(t, resilientOptions(), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	status, code := errCode(t, ts.URL+"/v1/models/blobs/density", map[string]any{"point": []float64{0, 0}})
	if status != http.StatusBadGateway || code != "injected_fault" {
		t.Fatalf("flush fault -> %d %q, want 502 injected_fault", status, code)
	}
	// The budgeted fault is spent; service resumes untouched.
	status, _, _ = postRaw(t, ts.URL+"/v1/models/blobs/density", `{"point":[0,0]}`)
	if status != http.StatusOK {
		t.Fatalf("after fault budget: %d, want 200", status)
	}
}

// TestFaultCacheUnavailableIsMiss: an unavailable density cache must
// degrade to cache misses — same answers, no failures, no false hits.
func TestFaultCacheUnavailableIsMiss(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := testServer(t, resilientOptions(), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"point":[0.5,-0.25]}`
	_, _, first := postRaw(t, ts.URL+"/v1/models/blobs/density", body)
	if err := faultinject.Arm("server.cache.get", faultinject.Spec{}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := s.Metrics().CacheHits.Load()
	status, _, second := postRaw(t, ts.URL+"/v1/models/blobs/density", body)
	if status != http.StatusOK {
		t.Fatalf("cache fault -> %d, want 200", status)
	}
	if second != first {
		t.Fatalf("cache-bypassed answer diverged:\n  %s\n  %s", first, second)
	}
	if got := s.Metrics().CacheHits.Load(); got != hitsBefore {
		t.Errorf("cache hits advanced (%d -> %d) while the cache was faulted", hitsBefore, got)
	}
}

// TestFaultParallelChunk: a fault inside the worker pool's chunk
// dispatch propagates out of the batch APIs like any chunk error and
// surfaces as 502 once retries are exhausted.
func TestFaultParallelChunk(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := resilientOptions()
	opt.RetryMax = -1
	opt.BreakerThreshold = -1
	s := testServer(t, opt, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := faultinject.Arm("parallel.chunk", faultinject.Spec{}); err != nil {
		t.Fatal(err)
	}
	status, code := errCode(t, ts.URL+"/v1/models/blobs/density", map[string]any{"points": [][]float64{{0, 0}, {1, 1}}})
	if status != http.StatusBadGateway || code != "injected_fault" {
		t.Fatalf("chunk fault -> %d %q, want 502 injected_fault", status, code)
	}
}

// TestFaultBreakerAndDegradedMode drives the full breaker lifecycle on
// the stream model: trip under injected eval failures, refuse fast
// while open, serve stale densities in degraded mode, probe half-open
// after the cooldown, and close again on success.
func TestFaultBreakerAndDegradedMode(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := resilientOptions()
	opt.RetryMax = -1 // each request = one breaker-visible attempt
	s := testServer(t, opt, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Deterministic breaker clock.
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	br := s.breakerFor(DefaultTenant, "live")
	br.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	primed := `{"point":[0.5,0.5]}`
	// Healthy request primes the exact and stale caches.
	status, hdr, healthyBody := postRaw(t, ts.URL+"/v1/models/live/density", primed)
	if status != http.StatusOK {
		t.Fatalf("prime: %d", status)
	}
	if hdr.Get("X-UDM-Degraded") != "" {
		t.Fatal("healthy response carries X-UDM-Degraded")
	}
	// Ingest one row: the model version advances, so the exact cache
	// entry for the primed point is retired — only the stale cache
	// (version-agnostic by design) still holds it.
	if st := postJSON(t, ts.URL+"/v1/models/live/ingest", map[string]any{"points": [][]float64{{4, 4}}}, nil); st != http.StatusOK {
		t.Fatalf("ingest: %d", st)
	}

	// Two consecutive injected failures trip the breaker.
	if err := faultinject.Arm("server.model.eval", faultinject.Spec{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		status, code := errCode(t, ts.URL+"/v1/models/live/density", map[string]any{"points": [][]float64{{1, float64(i)}}})
		if status != http.StatusBadGateway || code != "injected_fault" {
			t.Fatalf("trip request %d -> %d %q", i, status, code)
		}
	}
	if got := br.currentState(); got != breakerOpen {
		t.Fatalf("breaker state after threshold failures = %v, want open", got)
	}

	// Open breaker: batch requests are refused fast with 503 circuit_open
	// and a Retry-After hint; the armed eval fault is no longer even
	// reached.
	firedBefore := faultinject.Fired("server.model.eval")
	resp, err := http.Post(ts.URL+"/v1/models/live/density", "application/json",
		strings.NewReader(`{"points":[[2,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "circuit_open") {
		t.Fatalf("open breaker -> %d %s, want 503 circuit_open", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 circuit_open without Retry-After")
	}
	if faultinject.Fired("server.model.eval") != firedBefore {
		t.Error("open breaker still reached the model evaluation")
	}

	// Degraded mode: the primed point is served from the stale cache
	// with the degraded marker; an unprimed point cannot be served at
	// all.
	status, hdr, degradedBody := postRaw(t, ts.URL+"/v1/models/live/density", primed)
	if status != http.StatusOK {
		t.Fatalf("degraded serve -> %d %s", status, degradedBody)
	}
	if hdr.Get("X-UDM-Degraded") != "stale" {
		t.Fatalf("degraded response header = %q, want %q", hdr.Get("X-UDM-Degraded"), "stale")
	}
	if !strings.Contains(degradedBody, `"degraded":true`) {
		t.Fatalf("degraded body missing marker: %s", degradedBody)
	}
	if !strings.Contains(degradedBody, healthyBody[strings.Index(healthyBody, `"densities"`):strings.Index(healthyBody, `,`)]) {
		t.Fatalf("stale density diverged from the healthy answer:\n  healthy:  %s\n  degraded: %s", healthyBody, degradedBody)
	}
	if s.Metrics().Degraded.Load() == 0 {
		t.Error("udm_server_degraded_total stayed 0 after a degraded serve")
	}
	status, code := errCode(t, ts.URL+"/v1/models/live/density", map[string]any{"point": []float64{9.25, -9.5}})
	if status != http.StatusServiceUnavailable || code != "degraded" {
		t.Fatalf("unprimed degraded point -> %d %q, want 503 degraded", status, code)
	}

	// The breaker state is visible on the Prometheus surface.
	expo := getBody(t, ts.URL+"/metrics?format=prometheus")
	if !strings.Contains(expo, `udm_breaker_state{model="live"} 1`) {
		t.Errorf("exposition missing open breaker gauge:\n%s", grepLines(expo, "udm_breaker"))
	}

	// Cooldown elapses, the fault is cleared: the next request is the
	// half-open probe, succeeds, and closes the breaker.
	faultinject.Reset()
	advance(2 * time.Hour)
	status, hdr, _ = postRaw(t, ts.URL+"/v1/models/live/density", primed)
	if status != http.StatusOK || hdr.Get("X-UDM-Degraded") != "" {
		t.Fatalf("post-cooldown probe -> %d degraded=%q, want healthy 200", status, hdr.Get("X-UDM-Degraded"))
	}
	if got := br.currentState(); got != breakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", got)
	}
}

// TestFaultCheckpointWrite: error plans fail the server-side checkpoint
// write with the sentinel; truncation plans tear the artifact on disk
// in a way the loader must reject; a clean retry then round-trips.
func TestFaultCheckpointWrite(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	s := testServer(t, resilientOptions(), dir)
	path := filepath.Join(dir, "live.gob")

	if err := faultinject.Arm("server.checkpoint.write", faultinject.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.Checkpoint(); !errors.Is(err, udmerr.ErrInjected) {
		t.Fatalf("faulted checkpoint = %v, want ErrInjected", err)
	}

	if err := faultinject.Arm("server.checkpoint.write", faultinject.Spec{Truncate: 32, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.Checkpoint(); !errors.Is(err, udmerr.ErrInjected) {
		t.Fatalf("truncated checkpoint = %v, want ErrInjected", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, loadErr := stream.LoadEngine(f)
	f.Close()
	if loadErr == nil {
		t.Fatal("loading a torn checkpoint succeeded")
	}

	faultinject.Reset()
	if err := s.reg.Checkpoint(); err != nil {
		t.Fatalf("clean checkpoint after faults: %v", err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eng, err := stream.LoadEngine(f)
	if err != nil {
		t.Fatalf("clean checkpoint does not load: %v", err)
	}
	if eng.Count() == 0 {
		t.Fatal("recovered engine is empty")
	}
}

// TestBatcherCancelledBeforeFlushNotExecuted is the regression test for
// the coalesce/flush cancellation race: a request whose context ends
// while its flush is held up (here by an injected flush latency far
// longer than the test) must observe its own cancellation, and the
// batch — whose every member is gone — must abandon the stall and not
// execute or retry the work.
func TestBatcherCancelledBeforeFlushNotExecuted(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Delay: time.Hour}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	b := newBatcher(context.Background(), 8, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			calls.Add(1)
			return nil, fmt.Errorf("boom: %w", udmerr.ErrInjected) // retryable if anyone acted on it
		})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, 1)
		done <- err
	}()
	waitFor(t, "the flush to stall", func() bool { return flushFault.Hits() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	waitFor(t, "the abandoned flush to finish", func() bool { return idle(b) })
	if got := calls.Load(); got != 0 {
		t.Fatalf("batch executed %d times for a fully-cancelled membership, want 0", got)
	}
}

// TestBatcherLateErrorDoesNotMaskCancellation: when the batch result
// and the waiter's cancellation are simultaneously ready, the waiter
// must always report the cancellation — never the (retryable) batch
// error — regardless of which select arm fires.
func TestBatcherLateErrorDoesNotMaskCancellation(t *testing.T) {
	for i := 0; i < 50; i++ {
		release := make(chan struct{})
		b := newBatcher(context.Background(), 1, nil,
			func(ctx context.Context, reqs []int) ([]int, error) {
				<-release
				return nil, fmt.Errorf("late boom: %w", udmerr.ErrInjected)
			})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := b.do(ctx, 1)
			done <- err
		}()
		time.Sleep(time.Millisecond) // let the waiter coalesce and flush
		cancel()
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: cancelled waiter surfaced %v, want context.Canceled", i, err)
		}
	}
}

// TestRetrierBackoffDeterministic: the decorrelated-jitter schedule is
// a pure function of the seed, and every draw lands in [base, cap].
func TestRetrierBackoffDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		opt := Options{RetrySeed: seed, RetryBase: time.Millisecond, RetryCap: 50 * time.Millisecond}.withDefaults()
		r := newRetrier(opt, testMetrics().Retries)
		prev := r.base
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = r.backoff(&prev)
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Millisecond || a[i] > 50*time.Millisecond {
			t.Fatalf("draw %d = %v outside [base, cap]", i, a[i])
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical backoff schedules")
	}
}

// TestBreakerStateMachine drives the automaton directly with a fake
// clock: closed → open at the threshold, refusals while cooling,
// half-open probe gating, reopen on probe failure, close after the
// required consecutive successes.
func TestBreakerStateMachine(t *testing.T) {
	opt := Options{BreakerThreshold: 3, BreakerCooldown: time.Minute, BreakerProbes: 2}.withDefaults()
	b := newBreaker("m", opt, testMetrics().reg)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	ok := func() {
		t.Helper()
		if err := b.allow(); err != nil {
			t.Fatalf("allow refused in state %v: %v", b.currentState(), err)
		}
	}
	// Two failures stay closed; an intervening success resets the count.
	ok()
	b.done(false)
	ok()
	b.done(false)
	ok()
	b.done(true)
	ok()
	b.done(false)
	if b.currentState() != breakerClosed {
		t.Fatalf("state = %v, want closed", b.currentState())
	}
	// Three consecutive failures open it.
	ok()
	b.done(false)
	ok()
	b.done(false)
	if b.currentState() != breakerOpen {
		t.Fatalf("state = %v, want open", b.currentState())
	}
	if err := b.allow(); !errors.Is(err, udmerr.ErrCircuitOpen) {
		t.Fatalf("allow while open = %v, want ErrCircuitOpen", err)
	}
	// Cooldown elapses: exactly BreakerProbes probes are admitted.
	now = now.Add(2 * time.Minute)
	ok()
	ok()
	if err := b.allow(); !errors.Is(err, udmerr.ErrCircuitOpen) {
		t.Fatalf("third concurrent probe admitted in half-open: %v", err)
	}
	// One probe fails: straight back to open, new cooldown.
	b.done(false)
	if b.currentState() != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.currentState())
	}
	b.done(true) // stale outcome from the other probe: ignored while open
	if b.currentState() != breakerOpen {
		t.Fatalf("stale probe outcome moved the state to %v", b.currentState())
	}
	// Next cooldown: both probes succeed, breaker closes.
	now = now.Add(2 * time.Minute)
	ok()
	b.done(true)
	ok()
	b.done(true)
	if b.currentState() != breakerClosed {
		t.Fatalf("state after %d successful probes = %v, want closed", opt.BreakerProbes, b.currentState())
	}
	// Client-fault outcomes never count against a closed breaker.
	for i := 0; i < 10; i++ {
		ok()
		b.done(true)
	}
	if b.currentState() != breakerClosed {
		t.Fatal("healthy traffic moved the breaker")
	}
}

// TestRetryableClassification pins the retry/breaker error taxonomy.
func TestRetryableClassification(t *testing.T) {
	for err, want := range map[error]bool{
		udmerr.ErrInjected:                            true,
		errors.New("transient io"):                    true,
		context.Canceled:                              false,
		context.DeadlineExceeded:                      false,
		udmerr.ErrDimensionMismatch:                   false,
		udmerr.ErrBadOption:                           false,
		udmerr.ErrUntrained:                           false,
		udmerr.ErrBadData:                             false,
		udmerr.ErrCircuitOpen:                         false,
		udmerr.ErrDegraded:                            false,
		udmerr.ErrTailExpired:                         false,
		udmerr.ErrShardTimeout:                        true,
		fmt.Errorf("wrapped: %w", udmerr.ErrInjected): true,
	} {
		if got := retryable(err); got != want {
			t.Errorf("retryable(%v) = %v, want %v", err, got, want)
		}
	}
	if retryable(nil) {
		t.Error("retryable(nil) = true")
	}
}

// getBody GETs url and returns the body.
func getBody(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// grepLines filters s to lines containing sub (test-failure readability).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
