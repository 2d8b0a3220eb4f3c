package obs

import (
	"fmt"
	"sync/atomic"
)

// Usage is the per-query resource accounting tracker. All adders are
// atomic and nil-safe, so one tracker is shared by every operator of a
// query including parallel union arms and morsel workers; accounting is
// batched (one add per operator output, never per row). A nil *Usage is
// the disabled path: every method is a single nil check; the zero value
// is a ready tracker.
type Usage struct {
	rowsScanned   atomic.Int64
	rowsProduced  atomic.Int64
	bytesMat      atomic.Int64
	parallelTasks atomic.Int64
	cacheHits     atomic.Int64
}

// AddRowsScanned records base-table rows read.
func (u *Usage) AddRowsScanned(n int64) {
	if u == nil || n <= 0 {
		return
	}
	u.rowsScanned.Add(n)
}

// AddRowsProduced records operator output rows plus the estimated bytes
// of the rows the operator built (0 when it passes on rows it was given).
func (u *Usage) AddRowsProduced(rows, bytes int64) {
	if u == nil || rows < 0 {
		return
	}
	u.rowsProduced.Add(rows)
	if bytes > 0 {
		u.bytesMat.Add(bytes)
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
	}
}

// UsageSnapshot is the frozen usage block emitted into spans, EXPLAIN
// ANALYZE and the slow-query log.
type UsageSnapshot struct {
	RowsScanned       int64 `json:"rows_scanned"`
	RowsProduced      int64 `json:"rows_produced"`
	BytesMaterialized int64 `json:"bytes_materialized"`
	ParallelTasks     int64 `json:"parallel_tasks"`
	CacheHits         int64 `json:"cache_hits"`
}

// String renders the snapshot as one key=value line (the EXPLAIN block).
func (s *UsageSnapshot) String() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("rows_scanned=%d rows_produced=%d bytes_materialized=%d parallel_tasks=%d cache_hits=%d",
		s.RowsScanned, s.RowsProduced, s.BytesMaterialized, s.ParallelTasks, s.CacheHits)
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
}
