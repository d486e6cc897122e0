package server

import (
	"context"
	"sync"
	"sync/atomic"

	"udm/internal/faultinject"
)

// flushFault fires once per coalesced batch flush, before the batched
// library call runs. Tests park requests on it with an injected delay.
var flushFault = faultinject.NewPoint("server.batcher.flush")

// batcher coalesces concurrent single-item requests into one batched
// call on the shared worker pool by group commit. A submission that
// finds the batcher idle flushes at once; submissions that arrive while
// a batch runs queue up and flush together the moment it finishes; a
// queue that reaches MaxBatch flushes immediately. No request ever
// waits while the evaluator is idle, batches grow with load on their
// own, and at most one batch is in flight except when the queue fills.
// Coalescing turns N concurrent single-point HTTP requests into one
// DensityBatch / ClassifyBatch call that the parallel engine fans out
// across cores — per-request goroutine overhead collapses into one
// chunked dispatch.
//
// Cancellation: each submitted item carries its own context. A waiter
// whose context ends stops waiting immediately (its slot in the batch
// is still computed — results are positional). The batch's own context
// is derived from the server's base lifecycle context and the
// members': it is canceled as soon as EVERY member's context has
// ended, so work for a batch whose clients all disconnected is
// abandoned by the worker pool mid-flight, and it dies with the server
// regardless. A batch with at least one live waiter always runs to
// completion.
type batcher[Req, Res any] struct {
	base     context.Context
	run      func(ctx context.Context, reqs []Req) ([]Res, error)
	maxBatch int
	metrics  *Metrics

	mu      sync.Mutex
	pending []batchWaiter[Req, Res]
	busy    bool // a lead goroutine is flushing (see lead)
}

type batchWaiter[Req, Res any] struct {
	ctx context.Context
	req Req
	ch  chan batchResult[Res]
}

type batchResult[Res any] struct {
	val Res
	err error
}

// newBatcher builds a coalescer whose batch contexts descend from
// base, so in-flight batch work is canceled when the owning server's
// lifecycle ends.
func newBatcher[Req, Res any](base context.Context, maxBatch int, metrics *Metrics,
	run func(ctx context.Context, reqs []Req) ([]Res, error)) *batcher[Req, Res] {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if base == nil {
		base = context.Background()
	}
	return &batcher[Req, Res]{base: base, run: run, maxBatch: maxBatch, metrics: metrics}
}

// do submits one item and blocks until its result is ready or ctx
// ends. The error is either the batch error (every member of a failed
// batch sees it) or ctx.Err().
func (b *batcher[Req, Res]) do(ctx context.Context, req Req) (Res, error) {
	w := batchWaiter[Req, Res]{ctx: ctx, req: req, ch: make(chan batchResult[Res], 1)}
	b.mu.Lock()
	b.pending = append(b.pending, w)
	switch {
	case !b.busy:
		b.busy = true
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.lead(batch)
	case len(b.pending) >= b.maxBatch:
		// A full queue does not wait for the running batch.
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.flush(batch)
	default:
		b.mu.Unlock()
	}
	select {
	case r := <-w.ch:
		if r.err != nil && ctx.Err() != nil {
			// The batch failed after this waiter's context ended (both
			// select arms were ready; Go picks one at random). The
			// cancellation owns the outcome: reporting the batch error
			// would count a failure on behalf of a client that already
			// hung up.
			var zero Res
			return zero, ctx.Err()
		}
		return r.val, r.err
	case <-ctx.Done():
		var zero Res
		return zero, ctx.Err()
	}
}

// takeLocked detaches the pending queue. Callers hold b.mu.
func (b *batcher[Req, Res]) takeLocked() []batchWaiter[Req, Res] {
	batch := b.pending
	b.pending = nil
	return batch
}

// lead flushes batch and then every queue that gathers while the
// previous flush runs, until it finds the queue empty and the batcher
// goes idle.
func (b *batcher[Req, Res]) lead(batch []batchWaiter[Req, Res]) {
	for len(batch) > 0 {
		b.flush(batch)
		b.mu.Lock()
		batch = b.takeLocked()
		b.busy = len(batch) > 0
		b.mu.Unlock()
	}
}

// flush executes one batch and distributes positional results.
func (b *batcher[Req, Res]) flush(batch []batchWaiter[Req, Res]) {
	if b.metrics != nil {
		b.metrics.BatchFlushes.Add(1)
		b.metrics.BatchedItems.Add(int64(len(batch)))
		b.metrics.BatchSize.Observe(float64(len(batch)))
	}
	// Derive the batch context: canceled once every member's context is
	// done, so fully-abandoned work stops burning the pool. It descends
	// from the batcher's base (the server lifecycle), never from any one
	// member — a batch with live waiters must survive other members'
	// cancellations.
	ctx, cancel := context.WithCancel(b.base)
	var live atomic.Int64
	live.Store(int64(len(batch)))
	stops := make([]func() bool, len(batch))
	for i, w := range batch {
		stops[i] = context.AfterFunc(w.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	reqs := make([]Req, len(batch))
	for i, w := range batch {
		reqs[i] = w.req
	}
	// The flush fault point sees the batch context, so an injected delay
	// here models a stalled flush that members may cancel out of.
	err := flushFault.Hit(ctx)
	var res []Res
	if err == nil {
		res, err = b.run(ctx, reqs)
	}
	for _, stop := range stops {
		stop()
	}
	cancel()
	for i, w := range batch {
		r := batchResult[Res]{err: err}
		if err == nil {
			r.val = res[i]
		}
		select {
		case w.ch <- r:
		default: // waiter already gone; buffered chan, can't happen, but never block
		}
	}
}
