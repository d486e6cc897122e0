package distrib

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"udm/internal/faultinject"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/server"
	"udm/internal/stream"
	"udm/internal/udmerr"
)

// shardRPC fires once per shard RPC attempt (inside the retry loop, so
// a Times-bounded plan can kill exactly the first attempt and let the
// retry succeed — or, with retries disabled, kill the shard for the
// whole fan-out). The fault-matrix suite uses it to take a shard down
// mid-query.
var shardRPC = faultinject.NewPoint("distrib.shard.rpc")

// Shard names one backend udmserve instance.
type Shard struct {
	Name string // stable identity, used in metrics labels and errors
	URL  string // base URL, e.g. http://127.0.0.1:8081
}

// ShardClient speaks the serving wire protocol to one shard, each RPC
// running under the shard's own retry budget and circuit breaker
// (guard.go). Remote error codes map back to the module's sentinel
// errors (server.SentinelFor), so callers classify shard failures with
// errors.Is, never by matching strings.
type ShardClient struct {
	shard   Shard
	index   int
	hc      *http.Client
	retry   *retrier
	br      *breaker
	timeout time.Duration

	errors  *obs.Counter   // udm_proxy_shard_errors_total{shard=...}
	latency *obs.Histogram // udm_proxy_shard_latency_seconds{shard=...}
}

// NewShardClient builds a client for one shard. opt supplies the
// per-RPC timeout and the retry/breaker configuration; reg receives
// the shard-labeled metrics: udm_retry_total{target="shard:NAME"},
// udm_breaker_state and udm_breaker_trips_total{model="shard:NAME"},
// and the udm_proxy_shard_* series.
func NewShardClient(index int, sh Shard, opt Options, reg *obs.Registry) *ShardClient {
	opt = opt.withDefaults()
	target := "shard:" + sh.Name
	return &ShardClient{
		shard: sh,
		index: index,
		hc:    &http.Client{},
		retry: newRetrier(opt, reg.Counter("udm_retry_total",
			"operations retried after a transient failure", "target", target)),
		br:      newBreaker(target, opt, reg),
		timeout: opt.ShardTimeout,
		errors: reg.Counter("udm_proxy_shard_errors_total",
			"failed shard RPC attempts", "shard", sh.Name),
		latency: reg.Histogram("udm_proxy_shard_latency_seconds",
			"shard RPC latency", obs.ExpBuckets(1e-5, 2, 22), "shard", sh.Name),
	}
}

// Name returns the shard's configured name.
func (c *ShardClient) Name() string { return c.shard.Name }

// Index returns the shard's position in the fan-out order.
func (c *ShardClient) Index() int { return c.index }

// rpc runs one guarded RPC: breaker admission, retry budget, the
// distrib.shard.rpc fault site, a per-attempt timeout, and latency /
// error accounting. hdr carries extra request headers (nil for none);
// handle consumes a 200 response's body.
func (c *ShardClient) rpc(ctx context.Context, method, path string, in any, hdr http.Header, handle func(*http.Response) error) error {
	return retryDo(ctx, c.retry, c.br, func(ctx context.Context) error {
		return c.attempt(ctx, method, path, in, hdr, handle)
	})
}

// attempt runs one RPC attempt under its own deadline. A failure caused
// by that attempt-local deadline — while the caller's own context is
// still live — is reported as udmerr.ErrShardTimeout, not the raw
// context error: context.DeadlineExceeded means "the caller is out of
// time, stop", which the retry layer rightly never retries, whereas one
// slow or hung attempt is exactly the transient fault the retry budget
// and the shard's breaker exist for.
func (c *ShardClient) attempt(parent context.Context, method, path string, in any, hdr http.Header, handle func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(parent, c.timeout)
	defer cancel()
	err := c.do(ctx, method, path, in, hdr, handle)
	if err != nil && ctx.Err() != nil && parent.Err() == nil {
		return fmt.Errorf("distrib: shard %s: %s %s: attempt exceeded %v: %w",
			c.shard.Name, method, path, c.timeout, udmerr.ErrShardTimeout)
	}
	return err
}

func (c *ShardClient) do(ctx context.Context, method, path string, in any, hdr http.Header, handle func(*http.Response) error) error {
	if err := shardRPC.Hit(ctx); err != nil {
		c.errors.Inc()
		return fmt.Errorf("distrib: shard %s: %s %s: %w", c.shard.Name, method, path, err)
	}
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("distrib: shard %s: encoding %s body: %w", c.shard.Name, path, err)
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.shard.URL+path, body)
	if err != nil {
		return fmt.Errorf("distrib: shard %s: %s %s: %w", c.shard.Name, method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	c.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		c.errors.Inc()
		return fmt.Errorf("distrib: shard %s: %s %s: %w", c.shard.Name, method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.errors.Inc()
		return c.statusErr(resp, method, path)
	}
	return handle(resp)
}

// statusErr turns a non-200 reply into an error wrapping the sentinel
// its wire code stands for, preserving the errors.Is contract across
// the network hop.
func (c *ShardClient) statusErr(resp *http.Response, method, path string) error {
	var eb server.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	if sent := server.SentinelFor(eb.Error.Code); sent != nil {
		return fmt.Errorf("distrib: shard %s: %s %s: %s: %w",
			c.shard.Name, method, path, eb.Error.Message, sent)
	}
	return fmt.Errorf("distrib: shard %s: %s %s: status %d (%s: %s)",
		c.shard.Name, method, path, resp.StatusCode, eb.Error.Code, eb.Error.Message)
}

func jsonHandle(out any) func(*http.Response) error {
	return func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// Summary pulls the shard's current micro-cluster summary and the
// model version it reflects.
func (c *ShardClient) Summary(ctx context.Context, model string) (*microcluster.Summarizer, uint64, error) {
	var sum *microcluster.Summarizer
	var version uint64
	err := c.rpc(ctx, http.MethodGet, server.ModelPath(model)+"/summary", nil, nil, func(resp *http.Response) error {
		v, err := strconv.ParseUint(resp.Header.Get(server.VersionHeader), 10, 64)
		if err != nil {
			return fmt.Errorf("distrib: shard %s: summary version header %q: %w",
				c.shard.Name, resp.Header.Get(server.VersionHeader), err)
		}
		s, err := microcluster.Load(resp.Body)
		if err != nil {
			// A summary that does not decode, torn in transit or corrupt at
			// the shard, is an upstream fault, not the caller's bad data:
			// drop Load's ErrBadData so it is retried and never answered
			// as a 400.
			return fmt.Errorf("distrib: shard %s: decoding summary: %v", c.shard.Name, err)
		}
		sum, version = s, v
		return nil
	})
	return sum, version, err
}

// Partial evaluates per-cluster density terms on the shard under the
// coordinator's global bandwidths, pinned to the coordinator's model
// version.
func (c *ShardClient) Partial(ctx context.Context, model string, req server.PartialRequest) (server.PartialResponse, error) {
	var out server.PartialResponse
	err := c.rpc(ctx, http.MethodPost, server.ModelPath(model)+"/partial", req, nil, jsonHandle(&out))
	return out, err
}

// Checkpoint pulls a stream model's engine checkpoint and restores it
// — the first half of replica catch-up.
func (c *ShardClient) Checkpoint(ctx context.Context, model string) (*stream.Engine, error) {
	var eng *stream.Engine
	err := c.rpc(ctx, http.MethodGet, server.ModelPath(model)+"/checkpoint", nil, nil, func(resp *http.Response) error {
		e, err := stream.LoadEngine(resp.Body)
		if err != nil {
			return fmt.Errorf("distrib: shard %s: decoding checkpoint: %w", c.shard.Name, err)
		}
		eng = e
		return nil
	})
	return eng, err
}

// Tail pulls the raw records ingested after ordinal from — the second
// half of replica catch-up.
func (c *ShardClient) Tail(ctx context.Context, model string, from int64) (server.TailResponse, error) {
	var out server.TailResponse
	path := server.ModelPath(model) + "/tail?from=" + strconv.FormatInt(from, 10)
	err := c.rpc(ctx, http.MethodGet, path, nil, nil, jsonHandle(&out))
	return out, err
}

// Classify forwards a classify request (replicated models).
func (c *ShardClient) Classify(ctx context.Context, model string, req server.ClassifyRequest) (server.ClassifyResponse, error) {
	var out server.ClassifyResponse
	err := c.rpc(ctx, http.MethodPost, server.ModelPath(model)+"/classify", req, nil, jsonHandle(&out))
	return out, err
}

// Density forwards a density request (replicated models).
func (c *ShardClient) Density(ctx context.Context, model string, req server.DensityRequest) (server.DensityResponse, error) {
	var out server.DensityResponse
	err := c.rpc(ctx, http.MethodPost, server.ModelPath(model)+"/density", req, nil, jsonHandle(&out))
	return out, err
}

// Outliers forwards an outliers request (replicated models).
func (c *ShardClient) Outliers(ctx context.Context, model string, req server.OutliersRequest) (server.OutliersResponse, error) {
	var out server.OutliersResponse
	err := c.rpc(ctx, http.MethodPost, server.ModelPath(model)+"/outliers", req, nil, jsonHandle(&out))
	return out, err
}

// ingestKeyPrefix makes idempotency keys unique across proxy processes
// (a restarted proxy must never reuse a predecessor's keys for
// different batches), ingestKeySeq across batches within one.
var (
	ingestKeyPrefix = func() string {
		var b [12]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("distrib: reading process entropy for ingest keys: %v", err))
		}
		return hex.EncodeToString(b[:])
	}()
	ingestKeySeq atomic.Uint64
)

// Ingest sends records to the shard's stream model (partitioned
// models; the proxy routes each record here by consistent hash).
//
// Ingest mutates the shard and records carry no identity, so the call
// runs under a per-batch idempotency key: every retry of this logical
// batch resends the same key, and the shard acknowledges an
// already-applied key from its dedup window instead of re-applying
// (server/idempotency.go). That is what makes it safe for Ingest to
// share the guarded retry budget with the read-only RPCs — a response
// lost after the shard committed the batch cannot double-count data.
func (c *ShardClient) Ingest(ctx context.Context, model string, req server.IngestRequest) (server.IngestResponse, error) {
	key := ingestKeyPrefix + "-" + strconv.FormatUint(ingestKeySeq.Add(1), 10)
	hdr := http.Header{server.IdempotencyHeader: []string{key}}
	var out server.IngestResponse
	err := c.rpc(ctx, http.MethodPost, server.ModelPath(model)+"/ingest", req, hdr, jsonHandle(&out))
	return out, err
}
