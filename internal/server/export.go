package server

import (
	"context"

	"udm/internal/obs"

	"udm/internal/udmerr"
)

// This file is the serving substrate the distributed front tier
// (internal/distrib, cmd/udmproxy) reuses: the retry/breaker stack as
// a per-target Guard, the request coalescer, the wire shapes, and the
// sentinel↔status mapping. Everything here is a thin export of
// machinery this package already runs in production — the proxy gets
// the exact same resilience semantics as the single-node server, not a
// reimplementation.

// Wire shapes shared verbatim with the single-node server, so the
// proxy is drop-in URL- and body-compatible.
type (
	ClassifyRequest  = classifyRequest
	ClassifyResponse = classifyResponse
	DensityRequest   = densityRequest
	DensityResponse  = densityResponse
	OutliersRequest  = outliersRequest
	OutliersResponse = outliersResponse
	IngestRequest    = ingestRequest
	IngestResponse   = ingestResponse
	PartialRequest   = partialRequest
	PartialResponse  = partialResponse
	TailResponse     = tailResponse
	ErrorBody        = errorBody
)

// SentinelFor inverts the wire mapping: the sentinel error a stable
// code stands for, or nil for codes with no sentinel (e.g.
// "internal"). Clients of the protocol wrap the sentinel so their
// callers classify remote failures with errors.Is, never by matching
// message strings.
func SentinelFor(code string) error {
	switch code {
	case "dimension_mismatch":
		return udmerr.ErrDimensionMismatch
	case "bad_option", "malformed_json":
		return udmerr.ErrBadOption
	case "no_errors":
		return udmerr.ErrNoErrors
	case "untrained":
		return udmerr.ErrUntrained
	case "stale_version":
		return udmerr.ErrStaleVersion
	case "tail_expired":
		return udmerr.ErrTailExpired
	case "shard_timeout":
		return udmerr.ErrShardTimeout
	case "circuit_open":
		return udmerr.ErrCircuitOpen
	case "degraded":
		return udmerr.ErrDegraded
	case "injected_fault":
		return udmerr.ErrInjected
	case "timeout":
		return context.DeadlineExceeded
	case "client_closed_request":
		return context.Canceled
	}
	return nil
}

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
