// Package lockguardinterp is the interprocedural lock-discipline fixture:
// every seeded violation here crosses a function boundary, so a
// per-function analysis sees nothing wrong in this package while the
// summary-driven engine catches both.
package lockguardinterp

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// drop releases the counter's mutex on the caller's behalf — its summary
// carries a net-release lock delta.
func (c *counter) drop() {
	c.mu.Unlock()
}

// bad is the first seeded violation: drop's net release empties the
// caller's lock set, so the increment runs unprotected. Intra-procedurally
// the Lock() above still looks like cover.
func bad(c *counter) {
	c.mu.Lock()
	c.drop()
	c.n++
}

// lockAndGet acquires the mutex itself — its summary says may-acquire mu.
func (c *counter) lockAndGet() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// alsoBad is the second seeded violation: calling lockAndGet while the
// mutex is already held is a self-deadlock with a non-reentrant
// sync.Mutex. No single body shows both acquisitions.
func alsoBad(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.lockAndGet()
	return v
}

// peek requires the mutex held at entry.
//
//lint:holds mu
func (c *counter) peek() int { return c.n }

// nearMiss holds the mutex across the annotated callee: clean under both
// engines.
func nearMiss(c *counter) int {
	c.mu.Lock()
	v := c.peek()
	c.mu.Unlock()
	return v
}
