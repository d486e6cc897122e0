package server

import (
	"context"

	"udm/internal/obs"
)

// This file is the serving substrate the distributed front tier
// (internal/distrib, cmd/udmproxy) reuses: the retry/breaker stack as
// a per-target Guard and the request coalescer (the wire contract it
// shares is in wire.go). Everything here is a thin export of
// machinery this package already runs in production — the proxy gets
// the exact same resilience semantics as the single-node server, not a
// reimplementation.

// Guard bundles one target's resilience stack — the shared
// decorrelated-jitter retrier and a circuit breaker — for callers
// outside this package (the proxy guards each shard with one). Metrics
// land on the supplied registry: udm_retry_total{target=...},
// udm_breaker_state{model=...} and udm_breaker_trips_total{model=...}
// (the breaker series keep their label name for dashboard
// compatibility).
type Guard struct {
	retry *retrier
	br    *breaker
}

// NewGuard builds a guard for one named target under opt's retry and
// breaker configuration (zero values get the production defaults;
// negative RetryMax / BreakerThreshold disable that half).
func NewGuard(target string, opt Options, reg *obs.Registry) *Guard {
	opt = opt.withDefaults()
	return &Guard{
		retry: newRetrier(opt, reg.Counter("udm_retry_total",
			"operations retried after a transient failure", "target", target)),
		br: newBreaker(target, opt, reg),
	}
}

// GuardDo runs op under g's breaker admission and retry budget — the
// same semantics the server's model evaluations get: only transient
// faults are retried or counted against the breaker, and an op whose
// context ended is never re-run.
func GuardDo[T any](ctx context.Context, g *Guard, op func(context.Context) (T, error)) (T, error) {
	return retryDo(ctx, g.retry, g.br, op)
}

// Open reports whether the guard's breaker currently refuses
// admission.
func (g *Guard) Open() bool { return g.br.currentState() == breakerOpen }

// Coalescer micro-batches concurrent single-item operations onto one
// batched call by group commit, exactly as the server coalesces
// single-point requests (see batcher). Construct with NewCoalescer and
// submit with Do.
type Coalescer[Req, Res any] struct {
	b *batcher[Req, Res]
}

// NewCoalescer builds a coalescer whose batch lifetimes descend from
// ctx. maxBatch caps one batch; run receives the coalesced batch and
// returns positional results.
func NewCoalescer[Req, Res any](ctx context.Context, maxBatch int,
	run func(ctx context.Context, reqs []Req) ([]Res, error)) *Coalescer[Req, Res] {
	return &Coalescer[Req, Res]{b: newBatcher(ctx, maxBatch, nil, run)}
}

// Do submits one item and blocks until its result or ctx ends.
func (c *Coalescer[Req, Res]) Do(ctx context.Context, req Req) (Res, error) {
	return c.b.do(ctx, req)
}
