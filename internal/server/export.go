package server

import "context"

// This file exports the request coalescer to the distributed front
// tier (internal/distrib), which micro-batches single-point density
// requests onto one fan-out exactly as this package batches them onto
// one library call. The wire contract both tiers share is in wire.go.

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
