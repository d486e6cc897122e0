// Command udmserve serves saved density-transform artifacts over an
// HTTP JSON API: classification, density evaluation, outlier scoring
// and stream ingestion against a named model registry, with request
// micro-batching, a density LRU cache, load shedding and graceful
// shutdown (stream engines are checkpointed on SIGINT/SIGTERM).
//
// Usage:
//
//	udmserve -addr :8080 -model iris=transform:iris.gob
//	udmserve -model live=stream:engine.gob -model sum=summarizer:clusters.gob
//
// Each -model flag is name=kind:path where kind is transform (saved
// with udmclassify -save), summarizer (microcluster.Summarizer.Save)
// or stream (udmstream -checkpoint). Stream models are checkpointed
// back to their source path on shutdown unless -no-checkpoint is set.
//
// Every evaluation calls the library directly, so a 200 density is
// always the current model version's exact answer and a failed
// evaluation answers its error at once. Retries and circuit breakers
// live only in udmproxy, around the shard RPCs that cross a network.
//
// Endpoints: GET /healthz /readyz /metrics /v1/models and POST
// /v1/models/{name}/{classify,density,outliers,ingest}. /metrics
// serves the legacy JSON document by default and the Prometheus text
// exposition with ?format=prometheus. With -debug, GET /debug/pprof/*,
// /debug/traces and /debug/slow are also served. See the "Serving" and
// "Observability" sections of README.md for request shapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"udm/internal/core"
	"udm/internal/distrib"
	"udm/internal/evalopt"
	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/server"
	"udm/internal/stream"
)

// faultFlags collects repeated -fault flags (site=spec, armed after
// flag parsing so an invalid site or spec fails startup, not a
// request).
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, ",") }

func (f *faultFlags) Set(v string) error {
	if _, _, ok := strings.Cut(v, "="); !ok {
		return fmt.Errorf("want site=spec, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

// joinFlags collects repeated -join name=url flags: stream models to
// replicate from a running shard at startup (checkpoint pull + tail
// replay via internal/distrib) instead of loading from disk.
type joinFlags []struct{ name, url string }

func (j *joinFlags) String() string {
	parts := make([]string, len(*j))
	for i, s := range *j {
		parts[i] = s.name + "=" + s.url
	}
	return strings.Join(parts, ",")
}

func (j *joinFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*j = append(*j, struct{ name, url string }{name, url})
	return nil
}

// modelSpec is one parsed -model flag. name may be qualified as
// "tenant/name"; plain names land in the default tenant.
type modelSpec struct {
	tenant, name, kind, path string
}

// modelFlags collects repeated -model flags.
type modelFlags []modelSpec

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = fmt.Sprintf("%s=%s:%s", server.ModelRef(s.tenant, s.name), s.kind, s.path)
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=kind:path, got %q", v)
	}
	kind, path, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("want name=kind:path, got %q", v)
	}
	if name == "" || path == "" {
		return fmt.Errorf("empty name or path in %q", v)
	}
	switch kind {
	case "transform", "summarizer", "stream":
	default:
		return fmt.Errorf("unknown kind %q (want transform, summarizer or stream)", kind)
	}
	tenant, bare := server.SplitModelRef(name)
	*m = append(*m, modelSpec{tenant: tenant, name: bare, kind: kind, path: path})
	return nil
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "model to serve, name=kind:path (repeatable; kinds: transform, summarizer, stream)")
	var joins joinFlags
	flag.Var(&joins, "join", "replicate a stream model from a running shard, name=url (repeatable; not checkpointed on shutdown)")
	var faults faultFlags
	flag.Var(&faults, "fault", "arm a fault-injection site, site=spec (repeatable; e.g. server.batcher.flush=error,times=3; testing only)")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		threshold    = flag.Float64("a", 0, "classifier accuracy threshold for transform models (0 = default)")
		errorAdjust  = flag.Bool("error-adjust", true, "use the error-adjusted kernel for density and outliers")
		evalStr      = flag.String("eval", "", "evaluation policy for every model: the evalopt keys prune, epsilon and cells, e.g. prune=0.01,epsilon=0.05 (requests pick backend and accuracy per call, and q and seed only size summaries built from raw rows, so those keys are refused)")
		maxBatch     = flag.Int("max-batch", 0, "max coalesced requests per batched call (0 = default 64)")
		timeout      = flag.Duration("timeout", 0, "per-request timeout (0 = default 30s)")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently admitted requests before 429 shedding (0 = default 256)")
		cacheSize    = flag.Int("cache-size", 0, "density cache entries (0 = default 4096; negative disables)")
		workers      = flag.Int("workers", 0, "worker pool size for batched evaluation (0 = all cores)")
		noCheckpoint = flag.Bool("no-checkpoint", false, "do not checkpoint stream models on shutdown")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
		debug        = flag.Bool("debug", false, "expose /debug/pprof, /debug/traces and /debug/slow plus runtime gauges (unauthenticated)")
		slowRequest  = flag.Duration("slow", 0, "log requests slower than this and keep them in /debug/slow (0 = default 1s; -1ns disables)")
		tenantInfl   = flag.Int("tenant-inflight", 0, "per-tenant fair-share cap on admitted requests (0 = same as -max-inflight; negative = unlimited)")
		tenantModels = flag.Int("tenant-models", 0, "per-tenant cap on registered models, active or staged (0 = unlimited)")
		tenantPoints = flag.Int64("tenant-points", 0, "per-tenant cap on resident summarized points (0 = unlimited)")
	)
	flag.Parse()
	for _, f := range faults {
		if err := faultinject.ArmFlag(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmserve: armed fault %s\n", f)
	}
	if len(models) == 0 && len(joins) == 0 {
		fmt.Fprintln(os.Stderr, "udmserve: at least one -model name=kind:path (or -join name=url) is required")
		flag.Usage()
		os.Exit(2)
	}

	// The epsilon and cells keys configure the grid backend that
	// requests select per call.
	ev, err := evalopt.Parse(*evalStr)
	if err != nil {
		fatal(err)
	}
	kdeOpt := kde.Options{ErrorAdjust: *errorAdjust, Eval: ev}
	reg := server.NewRegistry()
	for _, spec := range models {
		m, err := loadModel(spec, *threshold, kdeOpt, *noCheckpoint)
		if err != nil {
			fatal(err)
		}
		if err := reg.AddTenant(spec.tenant, m); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmserve: loaded %s model %q (%d dims) from %s\n",
			spec.kind, server.ModelRef(spec.tenant, spec.name), m.Dims(), spec.path)
	}
	for _, j := range joins {
		c := distrib.NewShardClient(0, distrib.Shard{Name: j.name, URL: j.url},
			distrib.Options{}, obs.NewRegistry())
		// The catch-up RPCs accept a qualified "tenant/name" reference and
		// route through the matching namespace on the source shard.
		eng, err := distrib.CatchUp(context.Background(), c, j.name, 0)
		if err != nil {
			fatal(err)
		}
		tenant, bare := server.SplitModelRef(j.name)
		m, err := server.NewStreamModel(bare, eng, kdeOpt, "")
		if err != nil {
			fatal(err)
		}
		if err := reg.AddTenant(tenant, m); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmserve: joined stream model %q from %s (%d records)\n",
			j.name, j.url, eng.Count())
	}

	srv := server.New(reg, server.Options{
		MaxBatch:       *maxBatch,
		RequestTimeout: *timeout,
		MaxInflight:    *maxInflight,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		Debug:          *debug,
		SlowRequest:    *slowRequest,

		TenantMaxInflight: *tenantInfl,
		TenantMaxModels:   *tenantModels,
		TenantMaxPoints:   *tenantPoints,

		// Staged uploads (PUT .../models/{name}) evaluate under the same
		// estimator policy as disk-loaded models.
		ModelKDE:       kdeOpt,
		ModelThreshold: *threshold,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var served []string
	for _, t := range reg.Tenants() {
		for _, n := range reg.TenantNames(t) {
			served = append(served, server.ModelRef(t, n))
		}
	}
	fmt.Fprintf(os.Stderr, "udmserve: listening on %s (models: %s)\n",
		l.Addr(), strings.Join(served, ", "))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "udmserve: %s — draining (max %s) and checkpointing\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "udmserve: clean shutdown")
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

// loadModel reads one artifact from disk and wraps it for serving.
func loadModel(spec modelSpec, threshold float64, kdeOpt kde.Options, noCheckpoint bool) (*server.Model, error) {
	switch spec.kind {
	case "transform":
		t, err := core.LoadTransformFile(spec.path)
		if err != nil {
			return nil, err
		}
		return server.NewTransformModel(spec.name, t, core.ClassifierOptions{
			Threshold: threshold,
			KDE:       kdeOpt,
		})
	case "summarizer":
		f, err := os.Open(spec.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := microcluster.Load(f)
		if err != nil {
			return nil, fmt.Errorf("udmserve: %s: %w", spec.path, err)
		}
		return server.NewSummarizerModel(spec.name, s, kdeOpt)
	case "stream":
		f, err := os.Open(spec.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		eng, err := stream.LoadEngine(f)
		if err != nil {
			return nil, fmt.Errorf("udmserve: %s: %w", spec.path, err)
		}
		checkpoint := spec.path
		if noCheckpoint {
			checkpoint = ""
		}
		return server.NewStreamModel(spec.name, eng, kdeOpt, checkpoint)
	}
	return nil, fmt.Errorf("udmserve: unknown kind %q", spec.kind)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "udmserve: %v\n", err)
	os.Exit(1)
}
