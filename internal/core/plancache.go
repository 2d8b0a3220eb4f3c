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
// rewritten UCQ after static pruning, the unfolded SQL plan, and the
// projection/tag metadata — so a served query pays rewrite/unfold/plan once
// and every later execution of the same BGP+filter shape is execute-only.
// Entries are immutable once published (the executor never writes into a
// SelectStmt; binding resolves column slots into locals), which is what
// makes sharing one cached plan across concurrent clients safe.

// DefaultPlanCacheSize is the engine's plan-cache entry bound.
const DefaultPlanCacheSize = 256

// planShardCount is the number of lock-sharded LRU buckets.
const planShardCount = 8

// PlanCacheStats is a point-in-time snapshot of the cache counters.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Entries       int
	Capacity      int
}

type planEntry struct {
	key        string
	epoch      uint64
	plan       *compiledPlan
	prev, next *planEntry
}

// planShard is one LRU bucket: a map for lookup plus an intrusive
// doubly-linked list ordered most- to least-recently used.
type planShard struct {
	mu      sync.Mutex
	cap     int                   // immutable after construction
	entries map[string]*planEntry // guarded by mu
	head    *planEntry            // most recently used; guarded by mu
	tail    *planEntry            // least recently used; guarded by mu
}

// planCache is the bounded, sharded LRU. All counters are atomics; the
// registry handles are nil when the engine runs without metrics (obs
// counters and gauges are nil-safe).
type planCache struct {
	shards   [planShardCount]planShard
	epoch    atomic.Uint64
	entryCnt atomic.Int64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	mHits          *obs.Counter
	mMisses        *obs.Counter
	mEvictions     *obs.Counter
	mInvalidations *obs.Counter
	mEntries       *obs.Gauge
	mCapacity      *obs.Gauge
}

func newPlanCache(size int, reg *obs.Registry) *planCache {
	perShard := (size + planShardCount - 1) / planShardCount
	c := &planCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		//lint:ignore lockguard construction happens-before publication of the cache
		c.shards[i].entries = make(map[string]*planEntry)
	}
	if reg != nil {
		c.mHits = reg.Counter("npdbench_compile_cache_hits_total")
		c.mMisses = reg.Counter("npdbench_compile_cache_misses_total")
		c.mEvictions = reg.Counter("npdbench_compile_cache_evictions_total")
		c.mInvalidations = reg.Counter("npdbench_compile_cache_invalidations_total")
		c.mEntries = reg.Gauge("npdbench_compile_cache_entries")
		c.mCapacity = reg.Gauge("npdbench_compile_cache_capacity")
		c.mCapacity.Set(int64(perShard * planShardCount))
	}
	return c
}

func (c *planCache) capacity() int {
	return c.shards[0].cap * planShardCount
}

// epochNow returns the current configuration epoch; a compilation started
// under an older epoch is rejected by put, so a plan built against a
// constraint set that was swapped out mid-compile never lands in the cache.
func (c *planCache) epochNow() uint64 { return c.epoch.Load() }

func (c *planCache) shard(key string) *planShard {
	// FNV-1a.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%planShardCount]
}

func (c *planCache) get(key string) (*compiledPlan, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	en := sh.entries[key]
	if en == nil || en.epoch != c.epoch.Load() {
		sh.mu.Unlock()
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	sh.moveToFront(en)
	plan := en.plan
	sh.mu.Unlock()
	c.hits.Add(1)
	c.mHits.Inc()
	return plan, true
}

// put publishes a plan compiled under the given epoch. Stale epochs (an
// invalidation happened while compiling) are dropped.
func (c *planCache) put(key string, plan *compiledPlan, epoch uint64) {
	if epoch != c.epoch.Load() {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if en, ok := sh.entries[key]; ok {
		en.plan = plan
		en.epoch = epoch
		sh.moveToFront(en)
		sh.mu.Unlock()
		return
	}
	en := &planEntry{key: key, epoch: epoch, plan: plan}
	sh.entries[key] = en
	sh.pushFront(en)
	evicted := 0
	for len(sh.entries) > sh.cap {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		evicted++
	}
	sh.mu.Unlock()
	c.entryCnt.Add(int64(1 - evicted))
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.mEvictions.Add(int64(evicted))
	}
	c.mEntries.Set(c.entryCnt.Load())
}

// invalidate drops every entry and bumps the epoch so in-flight
// compilations cannot repopulate the cache with pre-invalidation plans.
func (c *planCache) invalidate() {
	c.epoch.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*planEntry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
	c.entryCnt.Store(0)
	c.invalidations.Add(1)
	c.mInvalidations.Inc()
	c.mEntries.Set(0)
}

func (c *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       int(c.entryCnt.Load()),
		Capacity:      c.capacity(),
	}
}

// --- intrusive LRU list ---

// pushFront links en as the most-recently-used entry.
//
//lint:holds mu
func (sh *planShard) pushFront(en *planEntry) {
	en.prev = nil
	en.next = sh.head
	if sh.head != nil {
		sh.head.prev = en
	}
	sh.head = en
	if sh.tail == nil {
		sh.tail = en
	}
}

// unlink removes en from the LRU list.
//
//lint:holds mu
func (sh *planShard) unlink(en *planEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		sh.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		sh.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

// moveToFront marks en most recently used.
//
//lint:holds mu
func (sh *planShard) moveToFront(en *planEntry) {
	if sh.head == en {
		return
	}
	sh.unlink(en)
	sh.pushFront(en)
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
