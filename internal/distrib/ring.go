// Package distrib is the distributed serving tier over the single-node
// server: a seeded consistent-hash ring for partitioned ingest, a shard
// client whose RPCs run under a per-shard retry loop and circuit
// breaker (the module's one resilience layer, on its one network hop),
// a fan-out/merge coordinator whose merged density answers are
// bit-identical to a single node over the union of the shards' data,
// and an HTTP front tier (Proxy, served by cmd/udmproxy) that is
// drop-in URL-compatible with udmserve. See DESIGN.md §16.
//
// The bit-identity contract rests on three facts, each regression-
// tested at its own layer: micro-cluster summaries merge by pure
// concatenation (Definition 1 additivity — microcluster.MergeSummarizers),
// per-cluster kernel terms evaluated under shared global bandwidths
// reproduce the merged estimator's per-cluster products exactly
// (kde.PartialTermsBatch), and one sequential left-to-right sum over the
// term lists concatenated in shard-index order replays the merged
// estimator's own summation sequence (kde.TestPartialTermsSharded).
// The coordinator therefore never re-orders, chunks, or compensates
// the merge reduction: order is the contract.
package distrib

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// FNV-64a parameters. The ring and the point-routing key both use
// FNV-64a — deterministic, dependency-free, and well-mixed enough for
// vnode placement.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvBytes folds b into h with FNV-64a.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// fnvUint64 folds v (little-endian) into h.
func fnvUint64(h, v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return fnvBytes(h, b[:])
}

// KeyPoint hashes a point's exact float64 bits into a routing key.
// Bit-equal points always land on the same shard; the proxy routes
// ingest with it and tests route expectation checks through the same
// function.
func KeyPoint(x []float64) uint64 {
	h := fnvOffset
	for _, v := range x {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// KeyPointTenant salts KeyPoint with the tenant id, so two tenants'
// bit-equal points route independently — one tenant's hot spot cannot
// pile onto the shard that happens to own another tenant's identical
// coordinates. The empty and default tenants hash exactly like the
// tenant-less KeyPoint, keeping every pre-tenancy layout (and its
// bit-identity fixtures) unchanged.
func KeyPointTenant(tenant string, x []float64) uint64 {
	h := fnvOffset
	if tenant != "" && tenant != "default" {
		h = fnvBytes(h, []byte(tenant))
		h = fnvBytes(h, []byte{0}) // unambiguous tenant/coords boundary
	}
	for _, v := range x {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// Ring is a seeded consistent-hash ring: each shard owns VNodes
// pseudo-random arc positions, and a key belongs to the shard owning
// the first position at or clockwise after the key's hash. The layout
// is a pure function of (shards, vnodes, seed), so every proxy replica
// configured identically routes identically — no coordination needed.
type Ring struct {
	points []ringPoint
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over shards ∈ [0, shards) with vnodes virtual
// nodes per shard (≤ 0 means the default 64) derived from seed.
func NewRing(shards, vnodes int, seed uint64) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("distrib: ring needs at least one shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		points: make([]ringPoint, 0, shards*vnodes),
		shards: shards,
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnvUint64(fnvUint64(fnvUint64(fnvOffset, seed), uint64(s)), uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	// Ties (astronomically unlikely) break toward the lower shard index
	// so the layout stays a pure function of the inputs.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the number of shards the ring routes over.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning key: the shard of the first
// ring position at or after key, wrapping past the top of the ring.
func (r *Ring) Owner(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// OwnerPoint routes a point by the hash of its exact coordinates.
func (r *Ring) OwnerPoint(x []float64) int { return r.Owner(KeyPoint(x)) }

// OwnerPointTenant routes a point by its tenant-salted hash.
func (r *Ring) OwnerPointTenant(tenant string, x []float64) int {
	return r.Owner(KeyPointTenant(tenant, x))
}
