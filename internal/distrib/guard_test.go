package distrib

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"udm/internal/obs"
	"udm/internal/udmerr"
)

// testRetries is a retry counter on a throwaway registry.
func testRetries() *obs.Counter {
	return obs.NewRegistry().Counter("udm_retry_total", "operations retried after a transient failure")
}

// TestRetrierBackoffDeterministic: the decorrelated-jitter schedule is
// a pure function of the seed, and every draw lands in [base, cap].
func TestRetrierBackoffDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		opt := Options{RetrySeed: seed, RetryBase: time.Millisecond, RetryCap: 50 * time.Millisecond}.withDefaults()
		r := newRetrier(opt, testRetries())
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
	b := newBreaker("m", opt, obs.NewRegistry())
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

// BenchmarkResilienceOverhead measures the per-call tax the retry
// wrapper and circuit breaker add around a SUCCESSFUL shard RPC — the
// price every RPC pays when nothing is failing. The bare case calls
// the same op directly; the deltas are the numbers reported in
// EXPERIMENTS.md. A shard RPC costs hundreds of microseconds, so the
// wrapper must stay in the tens of nanoseconds.
func BenchmarkResilienceOverhead(b *testing.B) {
	op := func(ctx context.Context) error { return nil }
	ctx := context.Background()

	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retry", func(b *testing.B) {
		r := newRetrier(Options{}.withDefaults(), testRetries())
		for i := 0; i < b.N; i++ {
			if err := retryDo(ctx, r, nil, op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retry-breaker", func(b *testing.B) {
		opt := Options{}.withDefaults()
		reg := obs.NewRegistry()
		r := newRetrier(opt, testRetries())
		br := newBreaker("bench", opt, reg)
		for i := 0; i < b.N; i++ {
			if err := retryDo(ctx, r, br, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}
