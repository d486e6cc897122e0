package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"udm/internal/obs"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// This file is the shard guard every ShardClient RPC runs under: a
// seeded retry loop and a per-shard circuit breaker. A shard RPC
// crosses a network hop, which fails transiently (a reset connection,
// a hung attempt, a restarting shard); an in-process evaluation does
// not, so this is the module's only resilience layer.

// retryable classifies an error as a transient fault worth retrying.
// Context endings are the caller's signal to stop; the sentinel
// input/configuration errors are deterministic (the same request fails
// the same way forever); breaker refusals are load shedding, not new
// information.
func retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, udmerr.ErrDimensionMismatch),
		errors.Is(err, udmerr.ErrBadOption),
		errors.Is(err, udmerr.ErrNoErrors),
		errors.Is(err, udmerr.ErrUntrained),
		errors.Is(err, udmerr.ErrBadData),
		errors.Is(err, udmerr.ErrCircuitOpen),
		errors.Is(err, udmerr.ErrDegraded),
		errors.Is(err, udmerr.ErrStaleVersion),
		errors.Is(err, udmerr.ErrTailExpired):
		return false
	}
	return true
}

// retrier bounds and paces retries of failed shard RPCs with
// decorrelated-jitter backoff: each sleep is drawn uniformly from
// [base, 3·prev] and clamped to cap, so consecutive retries spread out
// without synchronizing across requests. Draws come from a seeded
// rng.Source, making sleep sequences reproducible for a fixed seed and
// arrival order.
type retrier struct {
	max       int           // retries after the first attempt
	base, cap time.Duration // backoff window
	retries   *obs.Counter  // udm_retry_total{target=...}

	mu  sync.Mutex
	rng *rng.Source

	// sleep is context-aware and swappable so tests can run retry
	// schedules without wall-clock delay.
	sleep func(context.Context, time.Duration) error
}

// newRetrier builds a retrier from defaulted options; a negative
// RetryMax disables retries.
func newRetrier(opt Options, retries *obs.Counter) *retrier {
	return &retrier{
		max:     max(opt.RetryMax, 0),
		base:    opt.RetryBase,
		cap:     opt.RetryCap,
		retries: retries,
		rng:     rng.New(opt.RetrySeed),
		sleep:   sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff draws the next decorrelated-jitter delay and advances prev.
func (r *retrier) backoff(prev *time.Duration) time.Duration {
	lo, hi := float64(r.base), 3*float64(*prev)
	if hi < lo {
		hi = lo
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Uniform(lo, hi))
	r.mu.Unlock()
	if d > r.cap {
		d = r.cap
	}
	*prev = d
	return d
}

// retryDo runs op under the shard's circuit breaker and retry budget.
// The happy path adds one breaker admission (a short mutex hold) and
// one outcome report around op. On retryable failure it backs off and
// re-runs op; a call whose context has ended is never retried (its
// failure already has an owner: the caller).
func retryDo(ctx context.Context, r *retrier, br *breaker, op func(context.Context) error) error {
	var lastErr error
	prev := r.base
	for attempt := 0; ; attempt++ {
		if err := br.allow(); err != nil {
			if lastErr != nil {
				// The breaker opened under our own failed attempts;
				// the original failure is the informative error.
				return lastErr
			}
			return err
		}
		err := op(ctx)
		// Only transient faults count against the breaker: input
		// errors and context endings say nothing about shard health.
		br.done(err == nil || !retryable(err))
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) || attempt >= r.max || ctx.Err() != nil {
			return err
		}
		r.retries.Inc()
		if serr := r.sleep(ctx, r.backoff(&prev)); serr != nil {
			return err
		}
	}
}

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a per-shard circuit breaker. Closed: requests flow,
// consecutive transient failures are counted. Open (after threshold
// failures): requests are refused with ErrCircuitOpen without touching
// the shard, until cooldown elapses. Half-open: up to probes requests
// are let through; probes consecutive successes close the breaker, any
// failure reopens it (restarting the cooldown).
//
// A nil *breaker is valid and always allows — the disabled
// configuration compiles to two nil checks.
type breaker struct {
	target    string
	threshold int
	cooldown  time.Duration
	probes    int
	now       func() time.Time // swappable for deterministic tests
	gauge     *obs.Gauge       // udm_breaker_state{model=...}: 0/1/2
	trips     *obs.Counter     // udm_breaker_trips_total{model=...}

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	oks      int       // consecutive probe successes while half-open
	inflight int       // admitted probes while half-open
	openedAt time.Time // when the breaker last opened
}

// newBreaker builds the breaker for one named target from defaulted
// options, or nil (always allow) when BreakerThreshold is negative.
// Its series keep the label name "model" for dashboard compatibility.
func newBreaker(target string, opt Options, reg *obs.Registry) *breaker {
	if opt.BreakerThreshold <= 0 {
		return nil
	}
	b := &breaker{
		target:    target,
		threshold: opt.BreakerThreshold,
		cooldown:  opt.BreakerCooldown,
		probes:    opt.BreakerProbes,
		now:       time.Now,
		gauge: reg.Gauge("udm_breaker_state",
			"circuit-breaker state by model (0 closed, 1 open, 2 half-open)", "model", target),
		trips: reg.Counter("udm_breaker_trips_total",
			"circuit-breaker open transitions by model", "model", target),
	}
	b.gauge.Set(float64(breakerClosed))
	return b
}

// allow admits or refuses one call. Every nil return must be paired
// with exactly one done call reporting the outcome.
func (b *breaker) allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		if b.now().Sub(b.openedAt) < b.cooldown {
			return fmt.Errorf("distrib: breaker %q: %w (cooling down)", b.target, udmerr.ErrCircuitOpen)
		}
		b.setState(breakerHalfOpen)
		b.oks, b.inflight = 0, 0
	}
	if b.state == breakerHalfOpen {
		if b.inflight >= b.probes {
			return fmt.Errorf("distrib: breaker %q: %w (half-open, probes in flight)", b.target, udmerr.ErrCircuitOpen)
		}
		b.inflight++
	}
	return nil
}

// done reports the outcome of an allowed call; ok means the shard is
// healthy (success, or a failure that is the caller's fault).
func (b *breaker) done(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.inflight--
		if !ok {
			b.trip()
			return
		}
		b.oks++
		if b.oks >= b.probes {
			b.setState(breakerClosed)
			b.fails = 0
		}
	case breakerOpen:
		// A call admitted in half-open can report after another probe
		// already reopened the breaker; its outcome is stale.
	}
}

// trip opens the breaker and starts the cooldown clock. Callers hold
// b.mu.
func (b *breaker) trip() {
	b.setState(breakerOpen)
	b.openedAt = b.now()
	b.fails = 0
	b.trips.Inc()
}

// setState transitions the automaton and mirrors it to the gauge.
// Callers hold b.mu.
func (b *breaker) setState(s breakerState) {
	b.state = s
	b.gauge.Set(float64(s))
}

// currentState snapshots the state (for tests).
func (b *breaker) currentState() breakerState {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
