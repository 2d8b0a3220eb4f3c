package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// QueryBudget holds per-query soft resource limits. Zero fields mean
// "unlimited". Exceeding a limit never aborts the query — it raises a
// one-shot "budget exceeded" event on the Usage tracker, which surfaces as
// a span attribute, an EXPLAIN ANALYZE line, a slow-log field, and a
// labelled counter in the registry. Hard enforcement (killing the query)
// is a serving-layer policy decision and stays out of the engine.
type QueryBudget struct {
	// MaxRowsScanned bounds base-table rows read by the executor.
	MaxRowsScanned int64
	// MaxRowsProduced bounds rows emitted by relational operators.
	MaxRowsProduced int64
	// MaxBytesMaterialized bounds the estimated bytes of intermediate
	// relations materialized (rows x columns x value size).
	MaxBytesMaterialized int64
}

// Zero reports whether no limit is set.
func (b QueryBudget) Zero() bool {
	return b.MaxRowsScanned == 0 && b.MaxRowsProduced == 0 && b.MaxBytesMaterialized == 0
}

// Budget-limit bit positions in Usage.exceeded, and their canonical names
// (the `limit` label on npdbench_budget_exceeded_total).
const (
	limitRowsScanned = iota
	limitRowsProduced
	limitBytesMaterialized
	numBudgetLimits
)

// BudgetLimitNames are the canonical limit identifiers, indexed by bit.
var BudgetLimitNames = [numBudgetLimits]string{
	"rows_scanned",
	"rows_produced",
	"bytes_materialized",
}

// Usage is the per-query resource accounting tracker. All adders are
// atomic and nil-safe, so one tracker is shared by every operator of a
// query including parallel union arms and morsel workers; accounting is
// batched (one add per operator output, never per row). A nil *Usage is
// the disabled path: every method is a single nil check.
type Usage struct {
	rowsScanned   atomic.Int64
	rowsProduced  atomic.Int64
	bytesMat      atomic.Int64
	parallelTasks atomic.Int64
	cacheHits     atomic.Int64

	budget   QueryBudget
	exceeded atomic.Uint32 // bitmask over limit* bits, set once per limit
}

// NewUsage returns a tracker enforcing (softly) the given budget.
func NewUsage(b QueryBudget) *Usage {
	return &Usage{budget: b}
}

// AddRowsScanned records base-table rows read.
func (u *Usage) AddRowsScanned(n int64) {
	if u == nil || n <= 0 {
		return
	}
	v := u.rowsScanned.Add(n)
	if m := u.budget.MaxRowsScanned; m > 0 && v > m {
		u.trip(limitRowsScanned)
	}
}

// AddRowsProduced records operator output rows plus their estimated
// materialized footprint in bytes.
func (u *Usage) AddRowsProduced(rows, bytes int64) {
	if u == nil || rows < 0 {
		return
	}
	v := u.rowsProduced.Add(rows)
	if m := u.budget.MaxRowsProduced; m > 0 && v > m {
		u.trip(limitRowsProduced)
	}
	if bytes <= 0 {
		return
	}
	bv := u.bytesMat.Add(bytes)
	if m := u.budget.MaxBytesMaterialized; m > 0 && bv > m {
		u.trip(limitBytesMaterialized)
	}
}

// AddParallelTasks records tasks dispatched to the worker pool.
func (u *Usage) AddParallelTasks(n int64) {
	if u == nil || n <= 0 {
		return
	}
	u.parallelTasks.Add(n)
}

// AddCacheHits records plan/subquery cache hits.
func (u *Usage) AddCacheHits(n int64) {
	if u == nil || n <= 0 {
		return
	}
	u.cacheHits.Add(n)
}

// trip sets the exceeded bit for one limit; atomic Or makes repeated
// trips idempotent without a CAS retry loop.
func (u *Usage) trip(bit uint) {
	u.exceeded.Or(uint32(1) << bit)
}

// Exceeded returns the names of tripped budget limits, in bit order.
func (u *Usage) Exceeded() []string {
	if u == nil {
		return nil
	}
	mask := u.exceeded.Load()
	if mask == 0 {
		return nil
	}
	var out []string
	for bit, name := range BudgetLimitNames {
		if mask&(1<<uint(bit)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// Snapshot freezes the tracker into an immutable, JSON-ready block.
// Returns nil on a nil tracker.
func (u *Usage) Snapshot() *UsageSnapshot {
	if u == nil {
		return nil
	}
	return &UsageSnapshot{
		RowsScanned:       u.rowsScanned.Load(),
		RowsProduced:      u.rowsProduced.Load(),
		BytesMaterialized: u.bytesMat.Load(),
		ParallelTasks:     u.parallelTasks.Load(),
		CacheHits:         u.cacheHits.Load(),
		BudgetExceeded:    u.Exceeded(),
	}
}

// UsageSnapshot is the frozen usage block emitted into spans, EXPLAIN
// ANALYZE and the slow-query log.
type UsageSnapshot struct {
	RowsScanned       int64    `json:"rows_scanned"`
	RowsProduced      int64    `json:"rows_produced"`
	BytesMaterialized int64    `json:"bytes_materialized"`
	ParallelTasks     int64    `json:"parallel_tasks"`
	CacheHits         int64    `json:"cache_hits"`
	BudgetExceeded    []string `json:"budget_exceeded,omitempty"`
}

// String renders the snapshot as one key=value line (the EXPLAIN block).
func (s *UsageSnapshot) String() string {
	if s == nil {
		return ""
	}
	line := fmt.Sprintf("rows_scanned=%d rows_produced=%d bytes_materialized=%d parallel_tasks=%d cache_hits=%d",
		s.RowsScanned, s.RowsProduced, s.BytesMaterialized, s.ParallelTasks, s.CacheHits)
	if len(s.BudgetExceeded) > 0 {
		line += " budget_exceeded=" + strings.Join(s.BudgetExceeded, ",")
	}
	return line
}

// Annotate records the snapshot as attributes on a span (the query's root
// span, so `obdaq -trace` shows the usage block inline). Nil-safe on both
// sides.
func (s *UsageSnapshot) Annotate(sp *Span) {
	if s == nil || sp == nil {
		return
	}
	sp.SetInt("rows_scanned", int(s.RowsScanned))
	sp.SetInt("rows_produced", int(s.RowsProduced))
	sp.SetInt("bytes_materialized", int(s.BytesMaterialized))
	if s.ParallelTasks > 0 {
		sp.SetInt("parallel_tasks", int(s.ParallelTasks))
	}
	if s.CacheHits > 0 {
		sp.SetInt("cache_hits", int(s.CacheHits))
	}
	if len(s.BudgetExceeded) > 0 {
		sp.SetStr("budget_exceeded", strings.Join(s.BudgetExceeded, ","))
	}
}
