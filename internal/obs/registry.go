package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the typed metrics a Registry holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered time series: a metric name, an optional
// fixed label set, and the typed value behind it.
type entry struct {
	name   string
	help   string
	kind   metricKind
	labels []string // alternating key, value pairs, as registered

	counter   *Counter
	gauge     *Gauge
	gaugeFunc func() float64
	hist      *Histogram
}

// Registry is a set of named metrics. Registration (the Counter /
// Gauge / Histogram methods) takes a lock and is get-or-create:
// registering the same name and label set twice returns the same
// handle, so package-level `var` registration and repeated construction
// are both safe. Updating a registered metric is lock-free.
//
// Registration panics on a kind conflict (the same series registered
// as two different types) or malformed labels — programmer errors that
// should never survive a test run, mirroring expvar.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry. Most code uses Default();
// separate registries exist so components with instance-scoped series
// (e.g. one HTTP server per test) do not collide.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// seriesKey builds the map key "name{k="v",...}" for one series.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + labelString(labels) + "}"
}

// labelString renders alternating key/value pairs as `k="v",...` with
// keys in sorted order, so equal label sets always collide.
func labelString(labels []string) string {
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// validMetricName reports whether name satisfies the Prometheus data
// model ([a-zA-Z_:][a-zA-Z0-9_:]*). Anything else would render an
// unparsable exposition, so registration refuses it up front.
func validMetricName(name string) bool {
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}

// validLabelKey reports whether k is a legal label name
// ([a-zA-Z_][a-zA-Z0-9_]*). Label VALUES are unrestricted — they are
// escaped at render time.
func validLabelKey(k string) bool {
	for i, c := range k {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return k != ""
}

// register get-or-creates the entry for (name, labels), enforcing kind
// agreement, and runs fill on it under the registry lock, so a
// concurrent registration or render never sees an entry without its
// value.
func (r *Registry) register(name, help string, kind metricKind, labels []string, fill func(*entry)) *entry {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s registered with odd label list %q", name, labels))
	}
	for i := 0; i+1 < len(labels); i += 2 {
		if !validLabelKey(labels[i]) {
			panic(fmt.Sprintf("obs: metric %s registered with invalid label name %q", name, labels[i]))
		}
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok {
		e = &entry{name: name, help: help, kind: kind, labels: labels}
		r.entries[key] = e
	} else if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, not %s", key, e.kind, kind))
	}
	fill(e)
	return e
}

// Counter get-or-creates a monotonically increasing counter. labels are
// alternating key, value pairs fixed at registration.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels, func(e *entry) {
		if e.counter == nil {
			e.counter = &Counter{}
		}
	}).counter
}

// Gauge get-or-creates a gauge: a float value that can go up and down.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, kindGauge, labels, func(e *entry) {
		if e.gauge == nil {
			e.gauge = &Gauge{}
		}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// scrape — the hook runtime introspection rides on. Re-registering the
// same series replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGaugeFunc, labels, func(e *entry) { e.gaugeFunc = fn })
}

// Histogram get-or-creates a fixed-bucket histogram. buckets are the
// upper bounds (inclusive, the Prometheus `le` convention) of the
// finite buckets, strictly ascending; an overflow +Inf bucket is
// implicit. The bucket layout of an existing series cannot change.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly ascending: %v", name, buckets))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one finite bucket", name))
	}
	return r.register(name, help, kindHistogram, labels, func(e *entry) {
		if e.hist == nil {
			bounds := make([]float64, len(buckets))
			copy(bounds, buckets)
			e.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(buckets)+1)}
		}
	}).hist
}

// ExpBuckets returns n exponentially growing bucket upper bounds:
// start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// sorted returns the registry's entries ordered by name then label
// signature — the deterministic iteration every render uses.
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*entry, len(keys))
	for i, k := range keys {
		out[i] = r.entries[k]
	}
	r.mu.RUnlock()
	return out
}

// --- typed metrics ---

// Counter is a monotonically increasing counter updated with one
// atomic add. The zero value is usable but unregistered; get handles
// from Registry.Counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op when telemetry is disabled;
// negative n is ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a float64 value that may go up or down, stored as atomic
// bits.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op when telemetry is disabled).
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observation v lands in the
// first bucket whose upper bound is ≥ v (bounds are inclusive, the
// Prometheus `le` convention; values above every bound land in the
// implicit +Inf bucket). Observations and snapshots are lock-free;
// concurrent observes can skew a snapshot by at most the in-flight
// observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	n      atomic.Int64
}

// Observe records one value (no-op when telemetry is disabled). NaN is
// ignored; negative durations clamp to 0 at call sites, not here —
// a histogram may legitimately hold negative values.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() || math.IsNaN(v) {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// bucket returns the index of the bucket v falls in: the first bound
// ≥ v, else the +Inf bucket.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / float64(n)
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile observation (0 < q ≤ 1), or 0 when empty. Observations in
// the +Inf bucket report the largest finite bound, so the estimate
// never overstates by more than the bucket layout's resolution and
// never understates by more than one bucket.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns the finite upper bounds and the cumulative counts up
// to and including each (Prometheus `le` semantics), plus the total in
// the final +Inf position.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = h.bounds
	cumulative = make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// atomicFloat is a float64 with atomic CAS addition.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
