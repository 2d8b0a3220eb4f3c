// Package interp is the summary-layer unit fixture: each function
// isolates one interprocedural fact the bottom-up summaries must derive.
// It is consumed by the callgraph and summary unit tests and by a sharedmut
// golden run: tpDemo is the seeded violation, fpDemo the near-miss that
// only a callee summary clears.
package interp

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// peek requires the mutex held at entry.
//
//lint:holds mu
func (c *counter) peek() int { return c.n }

// wrapper forwards to peek without locking: it inherits the obligation
// onto its own parameter slot.
func wrapper(c *counter) int { return c.peek() }

// locker acquires and leaves the mutex held for the caller.
func (c *counter) locker() { c.mu.Lock() }

// unlocker releases the caller's mutex.
func (c *counter) unlocker() { c.mu.Unlock() }

type rel struct {
	rows []int //lint:shared may alias shared storage
}

// handOut returns the shared backing.
func (r *rel) handOut() []int { return r.rows }

// copyOut returns an owned copy.
func (r *rel) copyOut() []int {
	out := make([]int, len(r.rows))
	copy(out, r.rows)
	return out
}

// growCopy exercises the self-append cycle guard of the shape classifier.
func (r *rel) growCopy() []int {
	out := make([]int, 0, len(r.rows))
	out = append(out, r.rows...)
	return out
}

// passThrough returns its parameter's backing unchanged.
func passThrough(xs []int) []int { return xs }

var published []int

// publish stores its parameter beyond the call.
func publish(xs []int) { published = xs }

// fpDemo looks like a violation to a per-function analysis (a call result
// has unknown provenance) but copyOut's summary proves the backing locally
// owned.
func fpDemo(r *rel) []int {
	out := r.copyOut()
	out = append(out, 1)
	return out
}

// even and odd form a recursive cycle for the SCC condensation.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// tpDemo is fpDemo with handOut in place of copyOut: the summary proves the
// result aliases the shared rows, so the append may write into them.
func tpDemo(r *rel) []int {
	aliased := r.handOut()
	aliased = append(aliased, 1)
	return aliased
}
