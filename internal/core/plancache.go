package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"npdbench/internal/obs"
	"npdbench/internal/sparql"
	"npdbench/internal/unfold"
)

// The compiled-query cache memoizes the per-BGP compilation result — the
// rewritten UCQ, the unfolded SQL plan, and the
// projection/tag metadata — so a served query pays rewrite/unfold/plan once
// and every later execution of the same BGP+filter shape is execute-only.
// Aggregate-pushdown statements are entries of their own. Entries are
// immutable once published (the executor never writes into a SelectStmt;
// binding resolves column slots into locals), which is what makes sharing
// one cached plan across concurrent clients safe.

// DefaultPlanCacheSize is the engine's plan-cache entry bound.
const DefaultPlanCacheSize = 256

// PlanCacheStats is a point-in-time snapshot of the cache counters.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Entries       int
	Capacity      int
}

// planCache is one bounded map: a put at capacity drops one arbitrary
// entry. The 21-query mix fills 30 of its 256 entries, so a recency order
// would buy nothing; the bound is for clients that send ever new shapes.
// All counters are atomics; the registry handles are nil when the engine
// runs without metrics (obs counters and gauges are nil-safe).
type planCache struct {
	mu    sync.RWMutex
	plans map[string]*compiledPlan // guarded by mu
	// epoch changes only under mu, so put's check under mu cannot race an
	// invalidation.
	epoch atomic.Uint64
	cap   int

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	mHits          *obs.Counter
	mMisses        *obs.Counter
	mEvictions     *obs.Counter
	mInvalidations *obs.Counter
	mEntries       *obs.Gauge
}

func newPlanCache(size int, reg *obs.Registry) *planCache {
	c := &planCache{plans: make(map[string]*compiledPlan), cap: size}
	if reg != nil {
		c.mHits = reg.Counter("npdbench_compile_cache_hits_total")
		c.mMisses = reg.Counter("npdbench_compile_cache_misses_total")
		c.mEvictions = reg.Counter("npdbench_compile_cache_evictions_total")
		c.mInvalidations = reg.Counter("npdbench_compile_cache_invalidations_total")
		c.mEntries = reg.Gauge("npdbench_compile_cache_entries")
		reg.Gauge("npdbench_compile_cache_capacity").Set(int64(size))
	}
	return c
}

// epochNow returns the current configuration epoch; a compilation started
// under an older epoch is rejected by put, so a plan built against a
// constraint set that was swapped out mid-compile never lands in the cache.
func (c *planCache) epochNow() uint64 { return c.epoch.Load() }

func (c *planCache) get(key string) (*compiledPlan, bool) {
	c.mu.RLock()
	plan, ok := c.plans[key]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.mHits.Inc()
	return plan, true
}

// put publishes a plan compiled under the given epoch. Stale epochs (an
// invalidation happened while compiling) are dropped.
func (c *planCache) put(key string, plan *compiledPlan, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch.Load() {
		return
	}
	if _, ok := c.plans[key]; !ok && len(c.plans) >= c.cap {
		for victim := range c.plans {
			delete(c.plans, victim)
			break
		}
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
	c.plans[key] = plan
	c.mEntries.Set(int64(len(c.plans)))
}

// invalidate drops every entry and bumps the epoch so in-flight
// compilations cannot repopulate the cache with pre-invalidation plans.
func (c *planCache) invalidate() {
	c.mu.Lock()
	c.epoch.Add(1)
	c.plans = make(map[string]*compiledPlan)
	c.mu.Unlock()
	c.invalidations.Add(1)
	c.mInvalidations.Inc()
	c.mEntries.Set(0)
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.RLock()
	entries := len(c.plans)
	c.mu.RUnlock()
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Capacity:      c.cap,
	}
}

// planKey derives the canonical cache signature of a BGP plus its pushed
// filters. Triple patterns and filter conjuncts are order-insensitive —
// both the rewriting (a CQ is a set of atoms) and the pushed-filter
// conjunction (checked only as "all pushed") are — so both lists are
// sorted before joining. Field and record separators are control bytes
// that cannot appear inside rendered terms, keeping the signature
// injective over distinct shapes.
func planKey(bgp *sparql.BGP, push []unfold.PushFilter) string {
	ts := make([]string, len(bgp.Triples))
	for i, t := range bgp.Triples {
		ts[i] = t.String()
	}
	sort.Strings(ts)
	fs := make([]string, len(push))
	for i, f := range push {
		fs[i] = f.Var + "\x1f" + f.Op + "\x1f" + f.Val.String()
	}
	sort.Strings(fs)
	return strings.Join(ts, "\x1e") + "\x1d" + strings.Join(fs, "\x1e")
}
