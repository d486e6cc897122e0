package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/parallel"
	"udm/internal/server"
	"udm/internal/udmerr"
)

// Mode says how a model's data is laid out across the shard set.
type Mode string

const (
	// ModePartitioned: each shard holds a disjoint slice of the data
	// (stream models fed by hash-routed ingest). Density queries fan out
	// as partial-term evaluations and merge bit-deterministically;
	// outliers are scored on the merged head.
	ModePartitioned Mode = "partitioned"
	// ModeReplicated: every shard holds the full model (static transform
	// or summarizer artifacts loaded identically everywhere). Queries
	// split across replicas and concatenate positionally; any replica
	// can serve any slice.
	ModeReplicated Mode = "replicated"
)

// Head is the coordinator's merged view of a partitioned model: the
// shard summaries concatenated in shard-index order (Definition 1
// additivity makes that the exact summary of the union), the global
// bandwidths every shard must evaluate under (resolved over the merged
// summary, as a single node's estimator would), and the per-shard
// versions the view is pinned to.
type Head struct {
	Sum        *microcluster.Summarizer
	Bandwidths []float64
	Versions   []uint64  // per-shard model version at pull time
	Weights    []float64 // per-shard summarized point count
	Total      float64   // sum of Weights in shard-index order
}

// Coordinator owns the fan-out/merge protocol for one model across a
// fixed shard set. All methods are safe for concurrent use.
type Coordinator struct {
	model      string
	mode       Mode
	dims       int
	kdeOpt     kde.Options
	shards     []*ShardClient
	ring       *Ring
	workers    int
	refreshMax int

	fanouts  *obs.Counter
	degraded *obs.Counter

	mu   sync.Mutex
	head *Head
}

// NewCoordinator builds a coordinator; shards are fanned out to in
// slice order, which is the merge order — reordering the slice changes
// which bit-identical answer you get, so keep it stable across
// processes.
func NewCoordinator(model string, mode Mode, dims int, kdeOpt kde.Options,
	shards []*ShardClient, ring *Ring, opt Options, m *Metrics) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("distrib: model %q: no shards", model)
	}
	opt = opt.withDefaults()
	return &Coordinator{
		model:      model,
		mode:       mode,
		dims:       dims,
		kdeOpt:     kdeOpt,
		shards:     shards,
		ring:       ring,
		workers:    opt.FanoutWorkers,
		refreshMax: opt.RefreshMax,
		fanouts:    m.Fanouts,
		degraded:   m.Degraded,
	}, nil
}

// Model returns the model name the coordinator serves.
func (c *Coordinator) Model() string { return c.model }

// Mode returns the model's data layout.
func (c *Coordinator) Mode() Mode { return c.mode }

// Dims returns the model dimensionality.
func (c *Coordinator) Dims() int { return c.dims }

// CurrentHead returns the merged head, building it on first use (and
// after invalidation). Head builds are all-or-nothing: a merged view
// missing a shard would silently change the answer, so a shard that
// cannot even serve its summary fails the build rather than shrinking
// the merge. A shard that holds no records yet (its summary answers
// ErrUntrained) is an empty part — weight 0, version 0, no clusters —
// and only a model whose every shard is empty is untrained.
func (c *Coordinator) CurrentHead(ctx context.Context) (*Head, error) {
	c.mu.Lock()
	h := c.head
	c.mu.Unlock()
	if h != nil {
		return h, nil
	}
	return c.refreshHead(ctx)
}

func (c *Coordinator) refreshHead(ctx context.Context) (*Head, error) {
	type part struct {
		sum *microcluster.Summarizer
		v   uint64
	}
	parts, err := parallel.Map(ctx, len(c.shards), c.workers, func(i int) (part, error) {
		sum, v, err := c.shards[i].Summary(ctx, c.model)
		if errors.Is(err, udmerr.ErrUntrained) {
			return part{}, nil // an empty shard: no summary, version 0
		}
		if err != nil {
			return part{}, err
		}
		return part{sum: sum, v: v}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("distrib: model %q: head build: %w", c.model, err)
	}
	var sums []*microcluster.Summarizer
	versions := make([]uint64, len(parts))
	weights := make([]float64, len(parts))
	var total float64
	for i, p := range parts {
		if p.sum == nil {
			continue
		}
		sums = append(sums, p.sum)
		versions[i] = p.v
		weights[i] = float64(p.sum.Count())
		total += weights[i]
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("distrib: model %q: head build: all %d shards hold no records: %w",
			c.model, len(parts), udmerr.ErrUntrained)
	}
	merged, err := microcluster.MergeSummarizers(sums...)
	if err != nil {
		return nil, fmt.Errorf("distrib: model %q: head merge: %w", c.model, err)
	}
	bw, err := kde.SummaryBandwidths(merged, c.kdeOpt)
	if err != nil {
		return nil, fmt.Errorf("distrib: model %q: head bandwidths: %w", c.model, err)
	}
	h := &Head{Sum: merged, Bandwidths: bw, Versions: versions, Weights: weights, Total: total}
	c.mu.Lock()
	c.head = h
	c.mu.Unlock()
	return h, nil
}

// invalidateHead drops old as the cached head (a newer head installed
// concurrently survives).
func (c *Coordinator) invalidateHead(old *Head) {
	c.mu.Lock()
	if c.head == old {
		c.head = nil
	}
	c.mu.Unlock()
}

// InvalidateHead drops the cached head unconditionally; the next query
// rebuilds it. The proxy calls this after routing ingest, since every
// ingested record advances some shard's version.
func (c *Coordinator) InvalidateHead() {
	c.mu.Lock()
	c.head = nil
	c.mu.Unlock()
}

// Density answers a density query over the partitioned model: scatter
// partial-term evaluations (pinned to the head's versions, under the
// head's global bandwidths) to every shard, then merge with one
// sequential left-to-right sum over the term lists in shard-index
// order. With every shard live the answer is bit-identical to a single
// node holding the union of the data: the divisor Σ weights is an
// exact integer sum equal to the merged count, and the term sequence
// replays the merged estimator's own cluster order.
//
// When some shards fail (breaker open, injected fault, network), the
// survivors' terms still merge in index order, renormalized by the
// surviving mass; coverage reports the fraction of the head's total
// mass that answered, and the proxy surfaces it as
// X-UDM-Degraded: partial. A shard answering 409 stale_version forces
// a head refresh and a re-scatter, bounded by RefreshMax. A shard that
// was empty at head build and still answers untrained is live with no
// terms; once it holds records it answers the version-0 pin with
// stale_version, which refreshes the head.
func (c *Coordinator) Density(ctx context.Context, points [][]float64, dims []int) (ds []float64, coverage float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "proxy.fanout")
	defer sp.End()
	sp.Attr("model", c.model).Attr("op", "density").Attr("points", len(points))
	var lastErr error
	for attempt := 0; attempt <= c.refreshMax; attempt++ {
		h, err := c.CurrentHead(ctx)
		if err != nil {
			return nil, 0, err
		}
		c.fanouts.Inc()
		n := len(c.shards)
		resps := make([]*server.PartialResponse, n)
		errs := make([]error, n)
		// Fixed slots per shard: the scatter schedule cannot affect the
		// merge order. Shard errors park in their slot instead of
		// aborting the fan-out — a dead shard must not take the round
		// down with it.
		_ = parallel.For(ctx, n, c.workers, func(start, end int) error {
			for i := start; i < end; i++ {
				req := server.PartialRequest{
					Points: points, Dims: dims,
					Bandwidths: h.Bandwidths, Version: h.Versions[i],
				}
				resp, err := c.shards[i].Partial(ctx, c.model, req)
				if err != nil && h.Weights[i] == 0 && errors.Is(err, udmerr.ErrUntrained) {
					resp, err = server.PartialResponse{Terms: make([][]float64, len(points))}, nil
				}
				if err != nil {
					errs[i] = err
					continue
				}
				resps[i] = &resp
			}
			return nil
		})
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		stale := false
		for _, e := range errs {
			if e != nil && errors.Is(e, udmerr.ErrStaleVersion) {
				stale, lastErr = true, e
			}
		}
		if stale {
			c.invalidateHead(h)
			continue
		}
		live := 0
		var liveW float64
		for i := range resps {
			if resps[i] != nil {
				live++
				liveW += resps[i].Weight
			}
		}
		if live == 0 {
			first := errs[0]
			for _, e := range errs {
				if e != nil {
					first = e
					break
				}
			}
			return nil, 0, fmt.Errorf("distrib: model %q: all %d shards failed (first: %v): %w",
				c.model, n, first, udmerr.ErrDegraded)
		}
		out := make([]float64, len(points))
		for p := range points {
			var sum float64
			for i := range resps {
				if resps[i] == nil {
					continue
				}
				for _, t := range resps[i].Terms[p] {
					sum += t
				}
			}
			out[p] = sum / liveW
		}
		sp.Attr("live_shards", live)
		if live < n {
			c.degraded.Inc()
		}
		return out, liveW / h.Total, nil
	}
	return nil, 0, fmt.Errorf("distrib: model %q: head still stale after %d refreshes: %w",
		c.model, c.refreshMax, lastErr)
}

// failover reports whether a shard failure is worth redirecting to a
// replica: input and protocol errors are deterministic (every replica
// answers them identically), context endings belong to the caller;
// everything else — including a breaker refusal, which says nothing
// about the other replicas — fails over.
func failover(err error) bool {
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, udmerr.ErrDimensionMismatch),
		errors.Is(err, udmerr.ErrBadOption),
		errors.Is(err, udmerr.ErrNoErrors),
		errors.Is(err, udmerr.ErrBadData),
		errors.Is(err, udmerr.ErrUntrained),
		errors.Is(err, udmerr.ErrStaleVersion):
		return false
	}
	return true
}

// chunk returns the half-open row range replica i of k owns — a pure
// function of (n, k), so the split is identical for every schedule.
func chunk(n, k, i int) (lo, hi int) { return i * n / k, (i + 1) * n / k }

// Classify splits a classify batch contiguously across the replicas in
// shard-index order and concatenates the labels positionally. Labels
// are discrete, every replica holds the identical artifact, and slice
// boundaries depend only on (rows, shards), so the result matches a
// single node exactly. A failed replica's slice fails over to the next
// replica in index order.
func (c *Coordinator) Classify(ctx context.Context, points [][]float64) ([]int, error) {
	ctx, sp := obs.StartSpan(ctx, "proxy.fanout")
	defer sp.End()
	sp.Attr("model", c.model).Attr("op", "classify").Attr("points", len(points))
	c.fanouts.Inc()
	n, k := len(points), len(c.shards)
	out := make([]int, n)
	err := parallel.For(ctx, k, c.workers, func(start, end int) error {
		for i := start; i < end; i++ {
			lo, hi := chunk(n, k, i)
			if lo == hi {
				continue
			}
			labels, err := c.replicaClassify(ctx, i, points[lo:hi])
			if err != nil {
				return err
			}
			copy(out[lo:hi], labels)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Coordinator) replicaClassify(ctx context.Context, owner int, rows [][]float64) ([]int, error) {
	var lastErr error
	for off := 0; off < len(c.shards); off++ {
		i := (owner + off) % len(c.shards)
		resp, err := c.shards[i].Classify(ctx, c.model, server.ClassifyRequest{Points: rows})
		if err == nil {
			if len(resp.Labels) != len(rows) {
				return nil, fmt.Errorf("distrib: shard %s returned %d labels for %d rows",
					c.shards[i].Name(), len(resp.Labels), len(rows))
			}
			return resp.Labels, nil
		}
		lastErr = err
		if !failover(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// ReplicatedDensity splits a density batch across the replicas like
// Classify; base carries the request's dims/accuracy/backend options,
// which apply identically on every replica. Densities are computed by
// whichever replica owns the slice, and every replica holds the same
// artifact, so the concatenation is bit-identical to a single node.
func (c *Coordinator) ReplicatedDensity(ctx context.Context, points [][]float64, base server.DensityRequest) ([]float64, error) {
	ctx, sp := obs.StartSpan(ctx, "proxy.fanout")
	defer sp.End()
	sp.Attr("model", c.model).Attr("op", "density").Attr("points", len(points))
	c.fanouts.Inc()
	n, k := len(points), len(c.shards)
	out := make([]float64, n)
	err := parallel.For(ctx, k, c.workers, func(start, end int) error {
		for i := start; i < end; i++ {
			lo, hi := chunk(n, k, i)
			if lo == hi {
				continue
			}
			ds, err := c.replicaDensity(ctx, i, points[lo:hi], base)
			if err != nil {
				return err
			}
			copy(out[lo:hi], ds)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Coordinator) replicaDensity(ctx context.Context, owner int, rows [][]float64, base server.DensityRequest) ([]float64, error) {
	req := base
	req.Point = nil
	req.Points = rows
	var lastErr error
	for off := 0; off < len(c.shards); off++ {
		i := (owner + off) % len(c.shards)
		resp, err := c.shards[i].Density(ctx, c.model, req)
		if err == nil {
			if len(resp.Densities) != len(rows) {
				return nil, fmt.Errorf("distrib: shard %s returned %d densities for %d rows",
					c.shards[i].Name(), len(resp.Densities), len(rows))
			}
			return resp.Densities, nil
		}
		lastErr = err
		if !failover(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// ForwardOutliers serves an outliers request from the first replica
// that answers, trying them in shard-index order.
func (c *Coordinator) ForwardOutliers(ctx context.Context, req server.OutliersRequest) (server.OutliersResponse, error) {
	var lastErr error
	for i := range c.shards {
		resp, err := c.shards[i].Outliers(ctx, c.model, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !failover(err) {
			return server.OutliersResponse{}, err
		}
	}
	return server.OutliersResponse{}, lastErr
}

// Ingest routes each record to the shard owning the consistent hash of
// its exact coordinates, preserving arrival order within each shard's
// slice, and sums the per-shard acknowledgements. Count is the summed
// post-ingest count of the shards that received records, plus the last
// head's weight for shards that did not (best-effort: a proxy-side
// count, exact when the head is fresh). The cached head is always
// invalidated — ingestion advanced shard versions, and the next
// density fan-out must re-pin.
func (c *Coordinator) Ingest(ctx context.Context, req server.IngestRequest) (server.IngestResponse, error) {
	ctx, sp := obs.StartSpan(ctx, "proxy.fanout")
	defer sp.End()
	sp.Attr("model", c.model).Attr("op", "ingest").Attr("points", len(req.Points))
	c.fanouts.Inc()
	k := len(c.shards)
	groups := make([]server.IngestRequest, k)
	tenant, _ := server.SplitModelRef(c.model)
	for idx, x := range req.Points {
		o := c.ring.OwnerPointTenant(tenant, x)
		g := &groups[o]
		g.Points = append(g.Points, x)
		if req.Errors != nil {
			g.Errors = append(g.Errors, req.Errors[idx])
		}
		if req.Timestamps != nil {
			g.Timestamps = append(g.Timestamps, req.Timestamps[idx])
		}
	}
	c.mu.Lock()
	lastHead := c.head
	c.mu.Unlock()
	defer c.InvalidateHead()
	resps := make([]*server.IngestResponse, k)
	err := parallel.For(ctx, k, c.workers, func(start, end int) error {
		for i := start; i < end; i++ {
			if len(groups[i].Points) == 0 {
				continue
			}
			resp, err := c.shards[i].Ingest(ctx, c.model, groups[i])
			if err != nil {
				return err
			}
			resps[i] = &resp
		}
		return nil
	})
	if err != nil {
		return server.IngestResponse{}, err
	}
	var out server.IngestResponse
	for i := range resps {
		if resps[i] != nil {
			out.Ingested += resps[i].Ingested
			out.Count += resps[i].Count
		} else if lastHead != nil {
			out.Count += int(lastHead.Weights[i])
		}
	}
	return out, nil
}
