package obs

import (
	"runtime"
	"sync"
	"time"
)

// memCache caches one runtime.ReadMemStats result briefly so that a
// scrape evaluating several heap gauges pays for a single stats read.
type memCache struct {
	mu   sync.Mutex
	at   time.Time
	ttl  time.Duration
	last runtime.MemStats
}

func (m *memCache) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > m.ttl {
		runtime.ReadMemStats(&m.last)
		m.at = time.Now()
	}
	return m.last
}

// RegisterRuntimeGauges registers goroutine, heap, and GC gauges on
// reg, evaluated lazily at scrape time (registration is idempotent, so
// components can call it defensively). Heap and GC figures come from
// one runtime.ReadMemStats shared across the gauges with a short TTL.
func RegisterRuntimeGauges(reg *Registry) {
	mem := &memCache{ttl: 250 * time.Millisecond}
	reg.GaugeFunc("udm_runtime_goroutines", "live goroutines at scrape time",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("udm_runtime_gomaxprocs", "GOMAXPROCS at scrape time",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.GaugeFunc("udm_runtime_heap_alloc_bytes", "bytes of allocated heap objects",
		func() float64 { return float64(mem.read().HeapAlloc) })
	reg.GaugeFunc("udm_runtime_heap_sys_bytes", "bytes of heap obtained from the OS",
		func() float64 { return float64(mem.read().HeapSys) })
	reg.GaugeFunc("udm_runtime_heap_objects", "live heap objects",
		func() float64 { return float64(mem.read().HeapObjects) })
	reg.GaugeFunc("udm_runtime_next_gc_bytes", "heap size that triggers the next GC",
		func() float64 { return float64(mem.read().NextGC) })
	reg.GaugeFunc("udm_runtime_gc_runs", "completed GC cycles",
		func() float64 { return float64(mem.read().NumGC) })
	reg.GaugeFunc("udm_runtime_gc_pause_seconds", "cumulative GC stop-the-world pause time",
		func() float64 { return float64(mem.read().PauseTotalNs) / 1e9 })
}
