package sqldb

// HashIndex maps a composite key over fixed column positions to the row
// positions carrying that key.
type HashIndex struct {
	Cols []int
	m    map[string][]int
}

// NewHashIndex creates an empty hash index over the given column positions.
func NewHashIndex(cols []int) *HashIndex {
	return &HashIndex{Cols: cols, m: make(map[string][]int)}
}

// Add indexes row (stored at position pos).
func (ix *HashIndex) Add(row Row, pos int) {
	k := RowKey(row, ix.Cols)
	ix.m[k] = append(ix.m[k], pos)
}

// Lookup returns the positions of rows whose key columns equal row's.
func (ix *HashIndex) Lookup(row Row) []int {
	return ix.m[RowKey(row, ix.Cols)]
}

// LookupKey returns the positions for a pre-encoded key.
func (ix *HashIndex) LookupKey(key string) []int { return ix.m[key] }

// LookupValues returns the positions whose key columns equal vals (in the
// index's column order).
func (ix *HashIndex) LookupValues(vals []Value) []int {
	return ix.m[RowKeyOf(vals)]
}

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int { return len(ix.m) }
