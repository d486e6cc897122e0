// Package faultinject is the repository's deterministic fault-injection
// framework: named injection sites (Points) compiled into the layers
// that can fail — the request batcher, checkpoint writes, the parallel
// engine's chunk dispatch, the proxy's shard RPCs — and armed at
// runtime with seeded fault Specs (error returns, added latency,
// payload truncation, injected cancellation).
//
// The framework exists so the failure path is as testable as the happy
// path: the fault-matrix suites in internal/server and internal/distrib
// (the proxy's shard retries, breakers and degraded fan-out among them)
// drive real faults through real code, reproducibly, with no
// sleeps-and-hope scheduling.
//
// # Cost when off
//
// Injection is off by default and in any process that never calls Arm.
// Every Point.Hit then reduces to a single atomic load (the same gate
// discipline as internal/obs): no map lookups, no allocation, no rng.
// The bit-identity and overhead gates run with injection disarmed, so
// the instrumented binary is bit-transparent on the happy path.
//
// # Determinism
//
// A Spec fires on a deterministic schedule: the first Times hits (or
// every hit when Times is 0), optionally thinned by a Prob draw from a
// per-site stream seeded with Seed. For a fixed plan and a fixed
// sequence of hits, the same hits fire — which is what lets the
// fault-matrix tests assert exact retry counts and breaker transitions
// under -race with a fixed seed.
//
// Site names are lowercase dotted paths ("server.batcher.flush") and
// must be unique process-wide; NewPoint panics on duplicates and the
// faultpoint lint analyzer enforces literal, unique names statically.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"udm/internal/udmerr"
)

// on gates every Hit: false means no fault plan is armed anywhere and
// the hot path is one atomic load.
var on atomic.Bool

// registry holds every compiled-in Point by name.
var registry = struct {
	sync.Mutex
	points map[string]*Point
}{points: make(map[string]*Point)}

// Spec describes what an armed Point injects. The zero value fails
// every hit with ErrInjected; the fields compose:
//
//   - Delay sleeps (context-aware) before the site proceeds or fails.
//     A Spec with only Delay set injects pure latency: the site then
//     continues normally.
//   - Cancel makes the hit fail with an error matching context.Canceled,
//     simulating the site's context dying mid-operation. Takes
//     precedence over Err.
//   - Err makes the hit fail with ErrInjected (or Custom when set).
//   - Truncate (Writer sites only) lets Truncate bytes through and then
//     fails further writes with ErrInjected, producing a corrupt
//     partial payload.
//
// Times bounds how many hits fire (0 = every hit); Prob thins firing
// hits with a deterministic per-site stream seeded by Seed (0 < Prob
// < 1; 0 means always fire).
type Spec struct {
	Delay    time.Duration
	Cancel   bool
	Err      bool
	Custom   error
	Truncate int

	Times int
	Prob  float64
	Seed  int64
}

// state is one armed Spec plus its firing bookkeeping.
type state struct {
	spec Spec

	mu   sync.Mutex
	rng  *rand.Rand
	left int // firing hits remaining; -1 = unlimited
}

// fire consumes one hit and reports whether it fires.
func (st *state) fire() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.left == 0 {
		return false
	}
	if st.spec.Prob > 0 && st.spec.Prob < 1 && st.rng.Float64() >= st.spec.Prob {
		return false
	}
	if st.left > 0 {
		st.left--
	}
	return true
}

// Point is one named injection site, declared as a package-level var
// where the fault is compiled in:
//
//	var flushFault = faultinject.NewPoint("server.batcher.flush")
//
// and consulted on the code path it guards:
//
//	if err := flushFault.Hit(ctx); err != nil { return err }
type Point struct {
	name  string
	armed atomic.Pointer[state]
	hits  atomic.Int64
	fired atomic.Int64
}

// NewPoint registers a named injection site. The name must be a
// lowercase dotted path unique across the process; violations are
// programmer errors and panic (and are caught statically by the
// faultpoint analyzer).
func NewPoint(name string) *Point {
	if !ValidSiteName(name) {
		panic(fmt.Sprintf("faultinject: invalid site name %q (want lowercase dotted path like \"server.batcher.flush\")", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.points[name]; dup {
		panic(fmt.Sprintf("faultinject: duplicate site name %q", name))
	}
	p := &Point{name: name}
	registry.points[name] = p
	return p
}

// ValidSiteName enforces the site naming convention: at least two
// lowercase segments of [a-z0-9_] separated by single dots. Exported
// so the faultpoint lint analyzer applies the exact same rule
// statically that NewPoint applies at init time.
func ValidSiteName(name string) bool {
	segs := 0
	seg := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if seg == 0 {
				return false
			}
			segs++
			seg = 0
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			if seg == 0 && !(c >= 'a' && c <= 'z') {
				return false
			}
			seg++
		default:
			return false
		}
	}
	return seg > 0 && segs >= 1
}

// Name returns the site name.
func (p *Point) Name() string { return p.name }

// Hits returns how many times the site was reached while injection was
// enabled (hits are not counted on the disarmed fast path, by design —
// counting would cost an atomic add per hit in production).
func (p *Point) Hits() int64 { return p.hits.Load() }

// Fired returns how many hits actually injected their fault.
func (p *Point) Fired() int64 { return p.fired.Load() }

// Hit consults the site: it returns nil when injection is off, the site
// is disarmed, or the armed Spec chooses not to fire; otherwise it
// applies the Spec (sleeping Delay first) and returns the injected
// error, if any. A nil ctx means context.Background().
func (p *Point) Hit(ctx context.Context) error {
	if !on.Load() {
		return nil
	}
	return p.hit(ctx)
}

func (p *Point) hit(ctx context.Context) error {
	st := p.armed.Load()
	if st == nil {
		return nil
	}
	p.hits.Add(1)
	if !st.fire() {
		return nil
	}
	p.fired.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	if st.spec.Delay > 0 {
		t := time.NewTimer(st.spec.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	switch {
	case st.spec.Cancel:
		return fmt.Errorf("faultinject: %s: injected cancellation: %w", p.name, context.Canceled)
	case st.spec.Err || (st.spec.Truncate == 0 && st.spec.Delay == 0):
		return p.errInjected(st)
	}
	return nil
}

func (p *Point) errInjected(st *state) error {
	if st.spec.Custom != nil {
		return fmt.Errorf("faultinject: %s: %w", p.name, st.spec.Custom)
	}
	return fmt.Errorf("faultinject: %s: %w", p.name, udmerr.ErrInjected)
}

// Writer consults the site for a write-shaped operation: it behaves
// like Hit, except that a firing Spec with Truncate > 0 returns a
// wrapped writer that passes Truncate bytes through and then fails
// with ErrInjected — a deterministic torn write. When nothing fires,
// w is returned unchanged.
func (p *Point) Writer(ctx context.Context, w io.Writer) (io.Writer, error) {
	if !on.Load() {
		return w, nil
	}
	st := p.armed.Load()
	if st == nil {
		return w, nil
	}
	if st.spec.Truncate <= 0 {
		if err := p.hit(ctx); err != nil {
			return nil, err
		}
		return w, nil
	}
	p.hits.Add(1)
	if !st.fire() {
		return w, nil
	}
	p.fired.Add(1)
	return &truncWriter{w: w, left: st.spec.Truncate, err: p.errInjected(st)}, nil
}

// truncWriter lets left bytes through and then fails every write.
type truncWriter struct {
	w    io.Writer
	left int
	err  error
}

func (t *truncWriter) Write(b []byte) (int, error) {
	if t.left <= 0 {
		return 0, t.err
	}
	if len(b) <= t.left {
		n, err := t.w.Write(b)
		t.left -= n
		return n, err
	}
	n, err := t.w.Write(b[:t.left])
	t.left -= n
	if err != nil {
		return n, err
	}
	return n, t.err
}

// Arm installs spec at the named site and enables injection. Arming an
// already-armed site replaces its plan (and resets its firing budget);
// unknown sites are an error so typos in test plans and -fault flags
// fail loudly.
func Arm(site string, spec Spec) error {
	registry.Lock()
	p, ok := registry.points[site]
	registry.Unlock()
	if !ok {
		return fmt.Errorf("faultinject: unknown site %q (known: %v): %w", site, Sites(), udmerr.ErrBadOption)
	}
	left := -1
	if spec.Times > 0 {
		left = spec.Times
	}
	st := &state{spec: spec, left: left}
	if spec.Prob > 0 && spec.Prob < 1 {
		st.rng = rand.New(rand.NewSource(spec.Seed))
	}
	p.armed.Store(st)
	on.Store(true)
	return nil
}

// Disarm removes the plan at one site (no-op when not armed). Other
// armed sites keep injecting.
func Disarm(site string) {
	registry.Lock()
	p, ok := registry.points[site]
	registry.Unlock()
	if !ok {
		return
	}
	p.armed.Store(nil)
}

// Reset disarms every site, zeroes the hit counters, and turns the
// global gate off — the state a production process is born in. Tests
// defer it after arming plans.
func Reset() {
	on.Store(false)
	registry.Lock()
	defer registry.Unlock()
	for _, p := range registry.points {
		p.armed.Store(nil)
		p.hits.Store(0)
		p.fired.Store(0)
	}
}

// Enabled reports whether any fault plan has been armed since the last
// Reset.
func Enabled() bool { return on.Load() }

// Fired returns how many times the named site has fired since the last
// Reset (0 for unknown sites) — the cross-package handle fault-matrix
// tests assert injection counts with.
func Fired(site string) int64 {
	registry.Lock()
	p, ok := registry.points[site]
	registry.Unlock()
	if !ok {
		return 0
	}
	return p.Fired()
}

// Sites returns every compiled-in site name, sorted — the vocabulary
// Arm and the -fault flag accept.
func Sites() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.points))
	for n := range registry.points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
