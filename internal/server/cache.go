package server

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"
)

// lruCache is a bounded, concurrency-safe LRU map from density-cache
// keys to density values. A single mutex suffices: entries are tiny and
// the critical sections are a few pointer moves, so contention is
// dominated by the density evaluations the cache avoids.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val float64
}

// newLRUCache returns a cache bounded to capacity entries; capacity
// ≤ 0 returns nil (caching disabled — the nil methods are safe).
func newLRUCache(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

func (c *lruCache) get(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return 0, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheKey builds the density-cache key for (tenant, model, activation
// generation, model version, accuracy mode, dimension subset, query
// point). The tenant is a mandatory component: two tenants serving the
// same float batch under the same model name are different answers,
// and neither tenant's ingestion may retire — or serve — the other's
// entries. The generation segments entries across hot-swaps (static
// models stay at version 0 forever, so version alone cannot tell v1's
// answers from v2's). mode is the accuracy mode's String() — exact and
// approximate answers for the same point must never share an entry,
// and different ε budgets are distinct answers too. The point is keyed
// by its exact float64 bits, so a hit can only come from a
// bit-identical query and cached answers equal direct library calls
// bit for bit.
func cacheKey(tenant, model string, gen, version uint64, mode string, dims []int, x []float64) string {
	var b strings.Builder
	b.Grow(len(tenant) + len(model) + len(mode) + 9 + 20*(len(dims)+len(x)))
	b.WriteString(tenant)
	b.WriteByte(0) // tenants cannot contain NUL (ValidIdent), so this never aliases
	b.WriteString(model)
	b.WriteByte('#')
	b.WriteString(strconv.FormatUint(gen, 16))
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(version, 16))
	b.WriteByte('|')
	b.WriteString(mode)
	b.WriteByte('|')
	if dims == nil {
		b.WriteByte('*')
	} else {
		for _, j := range dims {
			b.WriteString(strconv.Itoa(j))
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	for _, v := range x {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 36))
		b.WriteByte(',')
	}
	return b.String()
}
