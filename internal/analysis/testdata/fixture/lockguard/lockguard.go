// Package lockguard is the golden fixture for the lockguard analyzer:
// every Lock matched by an Unlock on every path.
// (The blocking-under-lock check is scoped to server/parallel/stream
// package paths and is exercised by the internal/stream fixture.)
package lockguard

import (
	"errors"
	"sync"
)

// Counter is the guarded-struct shape used throughout the fixture.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc is the canonical clean shape: pointer receiver, defer unlock.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Get unlocks explicitly on the single path: no finding.
func (c *Counter) Get() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	return v
}

// LeakOnError is the early return that skips the unlock.
func (c *Counter) LeakOnError(fail bool) error {
	c.mu.Lock() // want "has no matching Unlock\\(\\) on some path"
	if fail {
		return errFixture
	}
	c.mu.Unlock()
	return nil
}

// BothArms unlocks on every branch: no finding.
func (c *Counter) BothArms(fast bool) int {
	c.mu.Lock()
	if fast {
		v := c.n
		c.mu.Unlock()
		return v
	}
	v := c.n * 2
	c.mu.Unlock()
	return v
}

// RW is the read-write flavor.
type RW struct {
	mu sync.RWMutex
	m  map[string]int
}

// Read pairs RLock with a deferred RUnlock: no finding.
func (r *RW) Read(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

// MismatchedUnlock releases the write side after taking the read side:
// the RLock is never RUnlocked.
func (r *RW) MismatchedUnlock(k string) int {
	r.mu.RLock() // want "has no matching RUnlock\\(\\) on some path"
	v := r.m[k]
	r.mu.Unlock()
	return v
}

// LoopMayBeSkipped only unlocks inside a loop that can run zero times.
func (c *Counter) LoopMayBeSkipped(n int) {
	c.mu.Lock() // want "has no matching Unlock\\(\\) on some path"
	for i := 0; i < n; i++ {
		c.mu.Unlock()
		return
	}
}

var errFixture = errors.New("fixture failure")
