package server

import (
	"math"

	"udm/internal/obs"
)

// latencyBuckets spans 1µs … ~67s in powers of two — the same
// resolution the pre-obs expvar histogram used (27 exponential
// microsecond buckets), now in seconds per the metric naming
// convention.
var latencyBuckets = obs.ExpBuckets(1e-6, 2, 27)

// batchSizeBuckets covers coalesced batch sizes up to the default
// MaxBatch and beyond.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics holds the server's counters, backed by the front's
// per-server obs.Registry: the same handles feed both the legacy JSON
// /metrics document (snapshot, key-compatible with the pre-obs shape)
// and the Prometheus exposition (/metrics?format=prometheus). Fields
// keep their historical names and Load/Add surface so embedders and
// tests are unaffected; the request outcomes and latency come from
// the embedded FrontMetrics.
//
// Note: the counters honor the global obs enable gate — under
// UDM_OBS=off they stop recording (the gate exists to benchmark the
// uninstrumented baseline, not for production use).
type Metrics struct {
	*FrontMetrics

	// Per-endpoint request counts (labeled series of one family).
	// PartialRequests (the shard-side fan-out endpoint) is
	// Prometheus-only: the JSON /metrics key set is frozen.
	ClassifyRequests *obs.Counter
	DensityRequests  *obs.Counter
	OutlierRequests  *obs.Counter
	IngestRequests   *obs.Counter
	PartialRequests  *obs.Counter

	// Micro-batching.
	BatchFlushes *obs.Counter   // coalesced batch executions
	BatchedItems *obs.Counter   // single-point requests that rode a batch
	BatchSize    *obs.Histogram // distribution of coalesced batch sizes

	// Density cache.
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter

	// Stream ingestion.
	IngestedRows *obs.Counter

	// Retried ingest batches acknowledged from the dedup window
	// (Prometheus-only: the JSON /metrics key set is frozen).
	IngestDeduped *obs.Counter

	// Hot-swap lifecycle (labeled series of one family; Prometheus-only
	// like the rest of the post-freeze metrics). Per-tenant request and
	// shed counters are registered lazily per tenant id by the front.
	SwapStaged    *obs.Counter
	SwapPromotes  *obs.Counter
	SwapRollbacks *obs.Counter
}

func newMetrics(f *Front) *Metrics {
	reg := f.metrics.reg
	return &Metrics{
		FrontMetrics: f.metrics,

		ClassifyRequests: f.endpointRequests("classify"),
		DensityRequests:  f.endpointRequests("density"),
		OutlierRequests:  f.endpointRequests("outliers"),
		IngestRequests:   f.endpointRequests("ingest"),
		PartialRequests:  f.endpointRequests("partial"),

		BatchFlushes: reg.Counter("udm_server_batch_flushes_total", "coalesced batch executions"),
		BatchedItems: reg.Counter("udm_server_batched_items_total", "single-point requests that rode a batch"),
		BatchSize:    reg.Histogram("udm_server_batch_size", "coalesced batch size per flush", batchSizeBuckets),

		CacheHits:   reg.Counter("udm_server_cache_hits_total", "density cache hits"),
		CacheMisses: reg.Counter("udm_server_cache_misses_total", "density cache misses"),

		IngestedRows: reg.Counter("udm_server_ingested_rows_total", "stream records ingested via /ingest"),

		IngestDeduped: reg.Counter("udm_server_ingest_dedup_total", "retried ingest batches acknowledged without re-applying"),

		SwapStaged:    reg.Counter("udm_server_swaps_total", "hot-swap lifecycle operations", "op", "stage"),
		SwapPromotes:  reg.Counter("udm_server_swaps_total", "hot-swap lifecycle operations", "op", "promote"),
		SwapRollbacks: reg.Counter("udm_server_swaps_total", "hot-swap lifecycle operations", "op", "rollback"),
	}
}

// usec converts a histogram bound or statistic in seconds to integer
// microseconds for the legacy JSON document.
func usec(seconds float64) int64 { return int64(math.Round(seconds * 1e6)) }

// snapshot renders every counter plus derived rates into a flat
// JSON-encodable map (the /metrics document). The key set is frozen:
// it predates the obs registry and is a compatibility contract.
func (m *Metrics) snapshot() map[string]any {
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	flushes, items := m.BatchFlushes.Load(), m.BatchedItems.Load()
	avgBatch := 0.0
	if flushes > 0 {
		avgBatch = float64(items) / float64(flushes)
	}
	doc := m.Snapshot()
	doc["classify_requests"] = m.ClassifyRequests.Load()
	doc["density_requests"] = m.DensityRequests.Load()
	doc["outlier_requests"] = m.OutlierRequests.Load()
	doc["ingest_requests"] = m.IngestRequests.Load()
	doc["ingested_rows"] = m.IngestedRows.Load()
	doc["batch_flushes"] = flushes
	doc["batched_items"] = items
	doc["avg_batch_size"] = avgBatch
	doc["cache_hits"] = hits
	doc["cache_misses"] = misses
	doc["cache_hit_rate"] = hitRate
	doc["latency_mean_us"] = usec(m.Latency.Mean())
	doc["latency_p50_us"] = usec(m.Latency.Quantile(0.50))
	doc["latency_p90_us"] = usec(m.Latency.Quantile(0.90))
	doc["latency_p99_us"] = usec(m.Latency.Quantile(0.99))
	return doc
}
