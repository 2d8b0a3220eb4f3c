package sqldb

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// Table is an in-memory heap of rows plus its indexes and statistics.
// Reads (queries) may run concurrently; writes (inserts) must be external-
// ly serialized with respect to reads, as in the benchmark workflow where
// instances are generated up front and then queried by many clients.
type Table struct {
	Def  *TableDef
	Rows []Row

	// lowerCols holds the lower-cased column names, from which Prepare
	// lays out every scan of the table.
	lowerCols []string

	pkIndex     *HashIndex            // over PrimaryKey columns, nil if no PK
	uniqueIdx   []*HashIndex          // parallel to Def.Uniques
	mu          sync.Mutex            // guards secondary and the stats cache
	secondary   map[string]*HashIndex // guarded by mu
	statsDirty  bool                  // guarded by mu
	cachedStats *TableStats           // guarded by mu
}

// NewTable creates an empty table for the given definition.
func NewTable(def *TableDef) (*Table, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Def: def, secondary: make(map[string]*HashIndex), lowerCols: make([]string, len(def.Columns))}
	for i, c := range def.Columns {
		t.lowerCols[i] = strings.ToLower(c.Name)
	}
	if len(def.PrimaryKey) > 0 {
		t.pkIndex = NewHashIndex(def.PrimaryKey)
	}
	for _, u := range def.Uniques {
		t.uniqueIdx = append(t.uniqueIdx, NewHashIndex(u))
	}
	return t, nil
}

// Segment does nothing.
//
// Deprecated: tables no longer keep a columnar segment; the row-at-a-time
// executor scans the row heap directly. Segment stays only so existing
// callers keep compiling.
func (t *Table) Segment() {}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// checkTypes verifies the row against column types and NOT NULL constraints.
func (t *Table) checkTypes(row Row) error {
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("sqldb: table %s: row has %d values, want %d", t.Def.Name, len(row), len(t.Def.Columns))
	}
	for i, v := range row {
		c := t.Def.Columns[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("sqldb: table %s: NULL in NOT NULL column %s", t.Def.Name, c.Name)
			}
			continue
		}
		want := c.Type.Kind()
		if v.Kind != want {
			// Allow int literals into float columns.
			if c.Type == TFloat && v.Kind == KindInt {
				row[i] = NewFloat(float64(v.I))
				continue
			}
			return fmt.Errorf("sqldb: table %s: column %s expects %s, got %s", t.Def.Name, c.Name, want, v.Kind)
		}
		if c.Type == TGeometry && v.G != nil && !v.G.Valid() {
			return fmt.Errorf("sqldb: table %s: column %s: invalid polygon", t.Def.Name, c.Name)
		}
	}
	return nil
}

// insertUnchecked appends the row and maintains indexes, without FK checks.
func (t *Table) insertUnchecked(row Row) error {
	if err := t.checkTypes(row); err != nil {
		return err
	}
	pos := len(t.Rows)
	if t.pkIndex != nil {
		if hasNullAt(row, t.Def.PrimaryKey) {
			return fmt.Errorf("sqldb: table %s: NULL in primary key", t.Def.Name)
		}
		if len(t.pkIndex.Lookup(row)) > 0 {
			return &DuplicateKeyError{Table: t.Def.Name, Key: RowKey(row, t.Def.PrimaryKey)}
		}
	}
	for ui, idx := range t.uniqueIdx {
		if hasNullAt(row, t.Def.Uniques[ui]) {
			continue // SQL: NULLs don't conflict in unique constraints
		}
		if len(idx.Lookup(row)) > 0 {
			return &DuplicateKeyError{Table: t.Def.Name, Key: RowKey(row, t.Def.Uniques[ui])}
		}
	}
	t.Rows = append(t.Rows, row)
	if t.pkIndex != nil {
		t.pkIndex.Add(row, pos)
	}
	for _, idx := range t.uniqueIdx {
		idx.Add(row, pos)
	}
	// The bulk-load contract serializes writes against reads externally,
	// but the secondary-index map and the stats cache are also maintained
	// by concurrent readers (EnsureIndex, Stats), so their mutex applies
	// here too — flagged by the lockguard pass, which found this access
	// running bare.
	t.mu.Lock()
	for _, idx := range t.secondary {
		idx.Add(row, pos)
	}
	t.statsDirty = true
	t.mu.Unlock()
	return nil
}

func hasNullAt(row Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

// DuplicateKeyError reports a primary/unique key violation.
type DuplicateKeyError struct {
	Table string
	Key   string
}

func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("sqldb: duplicate key in table %s", e.Table)
}

// HasPKValue reports whether a row with the given primary-key projection
// exists. keyRow must carry the key values in the PK column positions.
func (t *Table) HasPKValue(key Row) bool {
	if t.pkIndex == nil {
		return false
	}
	return len(t.pkIndex.LookupKey(RowKeyOf(key))) > 0
}

// RowKeyOf builds a composite key directly from a value slice (all values
// used, in order).
func RowKeyOf(vals []Value) string {
	cols := make([]int, len(vals))
	for i := range cols {
		cols[i] = i
	}
	return RowKey(Row(vals), cols)
}

// EnsureIndex builds (or returns) a secondary hash index over the given
// column positions. Safe for concurrent readers. Every foreign-key check
// of Insert calls it, so the lookup key is the positions as uvarints in a
// stack buffer, and a hit allocates nothing.
func (t *Table) EnsureIndex(cols []int) *HashIndex {
	var kb [16]byte
	key := kb[:0]
	for _, c := range cols {
		key = binary.AppendUvarint(key, uint64(c))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx, ok := t.secondary[string(key)]; ok {
		return idx
	}
	idx := NewHashIndex(cols)
	for pos, row := range t.Rows {
		idx.Add(row, pos)
	}
	t.secondary[string(key)] = idx
	return idx
}

// TableStats summarizes a table for the optimizer and for VIG's analysis
// phase.
type TableStats struct {
	RowCount int
	// DistinctCount[i] is the exact number of distinct non-NULL values in
	// column i; NullCount[i] the number of NULLs.
	DistinctCount []int
	NullCount     []int
	// Min/Max hold extrema per column for ordered types; NULL when the
	// column is empty or unordered.
	Min, Max []Value
}

// DuplicateRatio returns (|T.C| - |distinct(T.C)|) / |T.C| for column i,
// the paper's measure (D); 0 for an empty column.
func (s *TableStats) DuplicateRatio(i int) float64 {
	n := s.RowCount - s.NullCount[i]
	if n <= 0 {
		return 0
	}
	return float64(n-s.DistinctCount[i]) / float64(n)
}

// Stats computes (and caches) exact table statistics. Safe for concurrent
// readers.
func (t *Table) Stats() *TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cachedStats != nil && !t.statsDirty {
		return t.cachedStats
	}
	nc := len(t.Def.Columns)
	s := &TableStats{
		RowCount:      len(t.Rows),
		DistinctCount: make([]int, nc),
		NullCount:     make([]int, nc),
		Min:           make([]Value, nc),
		Max:           make([]Value, nc),
	}
	for i := 0; i < nc; i++ {
		seen := make(map[string]struct{})
		var minV, maxV Value
		for _, row := range t.Rows {
			v := row[i]
			if v.IsNull() {
				s.NullCount[i]++
				continue
			}
			seen[v.Key()] = struct{}{}
			if v.Kind == KindGeometry {
				continue
			}
			if minV.IsNull() {
				minV, maxV = v, v
				continue
			}
			if c, err := Compare(v, minV); err == nil && c < 0 {
				minV = v
			}
			if c, err := Compare(v, maxV); err == nil && c > 0 {
				maxV = v
			}
		}
		s.DistinctCount[i] = len(seen)
		s.Min[i], s.Max[i] = minV, maxV
	}
	t.cachedStats = s
	t.statsDirty = false
	return s
}
