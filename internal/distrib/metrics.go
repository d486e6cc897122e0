package distrib

import (
	"udm/internal/obs"
	"udm/internal/server"
)

// Metrics holds the proxy's counters on the front's obs.Registry: the
// request outcomes and latency the front records (embedded), plus the
// fan-out series. Shard-labeled series (udm_proxy_shard_errors_total,
// udm_proxy_shard_latency_seconds) and per-shard breaker series are
// registered on the same registry by the shard clients.
type Metrics struct {
	*server.FrontMetrics

	// Fanouts counts scatter/gather rounds against the shard set; a
	// stale-version refresh fans out again and counts again.
	Fanouts *obs.Counter // udm_proxy_fanout_total
	// Degraded counts fan-outs answered from a strict subset of the
	// shards (the responses carrying X-UDM-Degraded: partial).
	Degraded *obs.Counter // udm_proxy_degraded_total
}

func newProxyMetrics(fm *server.FrontMetrics) *Metrics {
	reg := fm.Registry()
	return &Metrics{
		FrontMetrics: fm,
		Fanouts:      reg.Counter("udm_proxy_fanout_total", "scatter/gather rounds against the shard set"),
		Degraded:     reg.Counter("udm_proxy_degraded_total", "fan-outs answered from a strict subset of shards"),
	}
}

// snapshot renders the proxy's JSON /metrics document: the front's
// shared keys plus the fan-out counters. Unlike the single-node
// server's frozen document this one is new with the proxy, so it
// carries exactly the proxy-level counters.
func (p *Proxy) snapshot() map[string]any {
	m := p.metrics
	doc := m.Snapshot()
	doc["fanouts"] = m.Fanouts.Load()
	doc["degraded"] = m.Degraded.Load()
	doc["latency_mean_us"] = int64(m.Latency.Mean() * 1e6)
	return doc
}
