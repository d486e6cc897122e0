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
	"sync/atomic"
	"testing"
	"time"

	"udm/internal/faultinject"
	"udm/internal/stream"
	"udm/internal/udmerr"
)

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

// TestFaultBatcherFlush: a fault at the flush site fails the whole
// coalesced batch; the waiter sees 502 injected_fault.
func TestFaultBatcherFlush(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := testServer(t, Options{}, "")
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

// TestFaultParallelChunk: a fault inside the worker pool's chunk
// dispatch propagates out of the batch APIs like any chunk error and
// surfaces as 502.
func TestFaultParallelChunk(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := Options{}
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

// TestFaultCheckpointWrite: error plans fail the server-side checkpoint
// write with the sentinel; truncation plans tear the artifact on disk
// in a way the loader must reject; a clean retry then round-trips.
func TestFaultCheckpointWrite(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	s := testServer(t, Options{}, dir)
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
// execute the work.
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
			return nil, fmt.Errorf("boom: %w", udmerr.ErrInjected)
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
// must always report the cancellation — never the batch error —
// regardless of which select arm fires.
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
