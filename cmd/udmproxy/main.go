// Command udmproxy is the front tier of a sharded udmserve deployment.
// It serves the same HTTP JSON API as udmserve — clients point at the
// proxy unchanged — but answers by fanning queries out to a fixed set
// of backend shards and merging their partial results. Partitioned
// stream models route ingest by a seeded consistent hash of the point
// and merge per-shard kernel terms in fixed shard order, so fan-out
// densities are bit-identical to a single node holding all the data.
// Replicated models split batches across replicas and fail rows over
// when one is down. When a shard's circuit breaker is open the proxy
// answers from the survivors, marks the response with
// `X-UDM-Degraded: partial`, and reports the surviving mass as a
// coverage fraction.
//
// Usage:
//
//	udmproxy -addr :8080 \
//	  -shard a=http://10.0.0.1:8081 -shard b=http://10.0.0.2:8081 \
//	  -model live=partitioned:2
//
// Each -shard flag is name=url; shard order on the command line is the
// deterministic merge order and must match across proxy replicas (as
// must -ring-seed and -vnodes). Each -model flag is
// name=mode:dims where mode is partitioned (stream models, hash-routed
// ingest) or replicated (identical artifacts on every shard). The name
// may be a qualified "tenant/name" reference (e.g. -model
// t1/live=partitioned:2): the proxy then serves it under
// /v1/t/{tenant}/... — mirroring udmserve's namespaces, including the
// X-UDM-Tenant header on legacy paths — and addresses the matching
// tenant namespace on every shard. Plain names stay in the default
// tenant and keep their pre-tenancy routing keys bit-for-bit, and
// default/live is the same model as live.
//
// Endpoints: GET /healthz /readyz /metrics /v1/models and POST
// /v1/models/{name}/{classify,density,outliers,ingest}, each also
// under the /v1/t/{tenant}/ prefix. /metrics serves JSON by default
// and the Prometheus text exposition with ?format=prometheus
// (including the udm_proxy_* fan-out series).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"udm/internal/distrib"
	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/server"
)

// faultFlags collects repeated -fault flags (armed after flag parsing
// so an invalid site or spec fails startup, not a request).
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, ",") }

func (f *faultFlags) Set(v string) error {
	if _, _, ok := strings.Cut(v, "="); !ok {
		return fmt.Errorf("want site=spec, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

// shardFlags collects repeated -shard name=url flags in command-line
// order — which is the merge order.
type shardFlags []distrib.Shard

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sh := range *s {
		parts[i] = sh.Name + "=" + sh.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	for _, sh := range *s {
		if sh.Name == name {
			return fmt.Errorf("duplicate shard name %q", name)
		}
	}
	*s = append(*s, distrib.Shard{Name: name, URL: url})
	return nil
}

// modelFlags collects repeated -model name=mode:dims flags.
type modelFlags []distrib.ModelConfig

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, cfg := range *m {
		parts[i] = fmt.Sprintf("%s=%s:%d", cfg.Name, cfg.Mode, cfg.Dims)
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=mode:dims, got %q", v)
	}
	mode, dimsStr, ok := strings.Cut(rest, ":")
	if !ok || name == "" {
		return fmt.Errorf("want name=mode:dims, got %q", v)
	}
	switch distrib.Mode(mode) {
	case distrib.ModePartitioned, distrib.ModeReplicated:
	default:
		return fmt.Errorf("unknown mode %q (want partitioned or replicated)", mode)
	}
	dims, err := strconv.Atoi(dimsStr)
	if err != nil || dims <= 0 {
		return fmt.Errorf("bad dims in %q (want a positive integer)", v)
	}
	*m = append(*m, distrib.ModelConfig{Name: name, Mode: distrib.Mode(mode), Dims: dims})
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "backend shard, name=url (repeatable; order fixes the merge order)")
	var models modelFlags
	flag.Var(&models, "model", "model to front, name=mode:dims or tenant/name=mode:dims (repeatable; modes: partitioned, replicated)")
	var faults faultFlags
	flag.Var(&faults, "fault", "arm a fault-injection site, site=spec (repeatable; e.g. distrib.shard.rpc=error,times=3; testing only)")
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		errorAdjust   = flag.Bool("error-adjust", true, "use the error-adjusted kernel for partitioned density and outliers")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per shard on the ingest ring (0 = default 64)")
		ringSeed      = flag.Uint64("ring-seed", 0, "ingest ring seed, identical across proxy replicas (0 = default 1)")
		shardTimeout  = flag.Duration("shard-timeout", 0, "per-shard RPC attempt timeout (0 = default 10s)")
		refreshMax    = flag.Int("refresh-max", 0, "max head refreshes after a stale-version answer (0 = default 3)")
		fanoutWorkers = flag.Int("fanout-workers", 0, "scatter concurrency (0 = one goroutine per shard)")
		maxBatch      = flag.Int("max-batch", 0, "max coalesced density requests per fan-out (0 = default 64)")
		timeout       = flag.Duration("timeout", 0, "per-request timeout (0 = default 30s)")
		maxInflight   = flag.Int("max-inflight", 0, "max concurrently admitted requests before 429 shedding (0 = default 256)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
		retryMax      = flag.Int("retry-max", 0, "max retries of a transiently-failed shard RPC (0 = default 2; negative disables)")
		retryBase     = flag.Duration("retry-base", 0, "base retry backoff (0 = default 5ms)")
		retryCap      = flag.Duration("retry-cap", 0, "max retry backoff (0 = default 250ms)")
		breakerAfter  = flag.Int("breaker-threshold", 0, "consecutive failures that open a shard's circuit breaker (0 = default 5; negative disables)")
		breakerCool   = flag.Duration("breaker-cooldown", 0, "how long an open breaker refuses a shard before probing (0 = default 5s)")
	)
	flag.Parse()
	for _, f := range faults {
		if err := faultinject.ArmFlag(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmproxy: armed fault %s\n", f)
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "udmproxy: at least one -shard name=url is required")
		flag.Usage()
		os.Exit(2)
	}
	if len(models) == 0 {
		fmt.Fprintln(os.Stderr, "udmproxy: at least one -model name=mode:dims is required")
		flag.Usage()
		os.Exit(2)
	}
	for i := range models {
		models[i].KDE = kde.Options{ErrorAdjust: *errorAdjust}
	}

	p, err := distrib.NewProxy(shards, models, distrib.Options{
		Server: server.Options{
			MaxBatch:       *maxBatch,
			RequestTimeout: *timeout,
			MaxInflight:    *maxInflight,
		},
		FanoutWorkers:    *fanoutWorkers,
		VNodes:           *vnodes,
		RingSeed:         *ringSeed,
		ShardTimeout:     *shardTimeout,
		RefreshMax:       *refreshMax,
		RetryMax:         *retryMax,
		RetryBase:        *retryBase,
		RetryCap:         *retryCap,
		BreakerThreshold: *breakerAfter,
		BreakerCooldown:  *breakerCool,
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	names := make([]string, len(shards))
	for i, sh := range shards {
		names[i] = sh.Name
	}
	fmt.Fprintf(os.Stderr, "udmproxy: listening on %s (shards: %s; models: %s)\n",
		l.Addr(), strings.Join(names, ", "), models.String())

	errc := make(chan error, 1)
	go func() { errc <- p.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "udmproxy: %s — draining (max %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			fatal(err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "udmproxy: clean shutdown")
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "udmproxy: %v\n", err)
	os.Exit(1)
}
