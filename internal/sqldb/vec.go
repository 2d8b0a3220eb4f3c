package sqldb

import "math"

// Execution-time columnar data. A vecData is one relation's columns as
// typed arrays; batch operators read them with type-specialized loops and
// produce fresh vecDatas by gathering survivor indices, sharing string
// dictionaries by reference so no operator ever copies a string payload.
// A vecData is immutable once visible to a consumer: base-table segments
// are shared by every statement, and intermediate vectors may be shared
// between a subquery cache entry and many union arms.

// colvec is one column: exactly one typed array is populated, selected by
// kind (ints serves INTEGER, BOOLEAN and DATE, which all store in Value.I).
type colvec struct {
	kind   Kind
	nulls  nullBitmap
	ints   []int64
	floats []float64
	dict   *strDict
	codes  []uint32
	geos   []*Geometry
}

// value materializes cell i as a Value (a stack struct; no heap traffic).
func (c *colvec) value(i int) Value {
	if c.nulls.get(i) {
		return Null
	}
	switch c.kind {
	case KindInt, KindBool, KindDate:
		return Value{Kind: c.kind, I: c.ints[i]}
	case KindFloat:
		return Value{Kind: KindFloat, F: c.floats[i]}
	case KindString:
		return Value{Kind: KindString, S: c.dict.vals[c.codes[i]]}
	case KindGeometry:
		return Value{Kind: KindGeometry, G: c.geos[i]}
	}
	return Null
}

// vecData is a columnar relation body: n rows over typed column vectors.
type vecData struct {
	n    int
	cols []colvec
}

// rowInto fills a reusable scratch row with row i (the bridge that lets
// arbitrary bound evalFns run over vectors without per-row allocation).
func (vd *vecData) rowInto(buf Row, i int) {
	for c := range vd.cols {
		buf[c] = vd.cols[c].value(i)
	}
}

// materializeRows transposes the vectors back into rows — the fallback
// boundary cost paid once when an unconverted operator needs []Row.
func (vd *vecData) materializeRows() []Row {
	rows := make([]Row, vd.n)
	cells := make([]Value, vd.n*len(vd.cols))
	w := len(vd.cols)
	for i := 0; i < vd.n; i++ {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		vd.rowInto(row, i)
		rows[i] = row
	}
	return rows
}

// ---- key hashing over vectors ------------------------------------------
//
// Batch join/dedup/group keys never build per-row key strings: each key
// column mixes a (class, payload) pair into a running per-row hash, with
// the class tags chosen so the hash respects Value.Key() equivalence —
// integers and small integral floats share the int class, NaNs collapse,
// dates and booleans stay distinct from integers. Candidate collisions are
// verified with Value.keyEq, so correctness never rests on the hash.

const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211
)

func mix64(h, x uint64) uint64 {
	h ^= x
	h *= hashPrime64
	h ^= h >> 29
	return h
}

// hashCellKey returns the class hash of one materialized value; the
// keyEq-equivalence twin of Value.Key().
func hashCellKey(v Value) uint64 {
	if i, ok := v.intClass(); ok {
		return mix64(0x01, uint64(i))
	}
	switch v.Kind {
	case KindNull:
		return mix64(0x00, 0)
	case KindFloat:
		f := v.F
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return mix64(0x02, math.Float64bits(f))
	case KindString:
		return mix64(0x03, hashString(v.S))
	case KindBool:
		return mix64(0x04, uint64(v.I))
	case KindDate:
		return mix64(0x05, uint64(v.I))
	case KindGeometry:
		return mix64(0x06, hashString(v.G.String()))
	}
	return mix64(0x07, 0)
}

// hashColRange mixes the key-class hashes of rows [lo,hi) of column c into
// dst (dst[j] covers row lo+j). Type-specialized: string columns reuse the
// dictionary's precomputed per-code hashes, integer columns never touch a
// Value.
func (c *colvec) hashColRange(dst []uint64, lo, hi int) {
	switch c.kind {
	case KindInt:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			if c.nulls.get(i) {
				dst[j] = mix64(dst[j], mix64(0x00, 0))
				continue
			}
			dst[j] = mix64(dst[j], mix64(0x01, uint64(c.ints[i])))
		}
	case KindBool:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			if c.nulls.get(i) {
				dst[j] = mix64(dst[j], mix64(0x00, 0))
				continue
			}
			dst[j] = mix64(dst[j], mix64(0x04, uint64(c.ints[i])))
		}
	case KindDate:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			if c.nulls.get(i) {
				dst[j] = mix64(dst[j], mix64(0x00, 0))
				continue
			}
			dst[j] = mix64(dst[j], mix64(0x05, uint64(c.ints[i])))
		}
	case KindFloat:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			if c.nulls.get(i) {
				dst[j] = mix64(dst[j], mix64(0x00, 0))
				continue
			}
			dst[j] = mix64(dst[j], hashCellKey(Value{Kind: KindFloat, F: c.floats[i]}))
		}
	case KindString:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			if c.nulls.get(i) {
				dst[j] = mix64(dst[j], mix64(0x00, 0))
				continue
			}
			dst[j] = mix64(dst[j], mix64(0x03, c.dict.hashes[c.codes[i]]))
		}
	default:
		for j, i := 0, lo; i < hi; j, i = j+1, i+1 {
			dst[j] = mix64(dst[j], hashCellKey(c.value(i)))
		}
	}
}

// hashKeyRange computes composite key hashes for rows [lo,hi) over the
// given column slots, writing into dst (resliced to hi-lo).
func (vd *vecData) hashKeyRange(dst []uint64, slots []int, lo, hi int) []uint64 {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, hashOffset64)
	}
	for _, s := range slots {
		vd.cols[s].hashColRange(dst, lo, hi)
	}
	return dst
}

// keyEqAt reports Value.Key() equivalence of two vector rows projected on
// paired column slots.
func keyEqAt(a *vecData, ai int, aSlots []int, b *vecData, bi int, bSlots []int) bool {
	for k := range aSlots {
		if !a.cols[aSlots[k]].value(ai).keyEq(b.cols[bSlots[k]].value(bi)) {
			return false
		}
	}
	return true
}

// hasNullKey reports whether row i is NULL in any of the key slots.
func (vd *vecData) hasNullKey(i int, slots []int) bool {
	for _, s := range slots {
		if vd.cols[s].nulls.get(i) {
			return true
		}
	}
	return false
}

// ---- gathering ----------------------------------------------------------

// vecBuilder accumulates output rows of a batch operator column by column.
// Gathers are type-specialized appends; string columns copy codes and share
// the source dictionary. A builder's columns all gather from the same
// source relation; a join's output builder is built over both sides'
// columns and gathers each side through a builder over its half.
type vecBuilder struct {
	cols []colvec
	n    int
}

func newVecBuilder(srcs ...[]colvec) *vecBuilder {
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	b := &vecBuilder{cols: make([]colvec, 0, n)}
	for _, src := range srcs {
		for i := range src {
			b.cols = append(b.cols, colvec{kind: src[i].kind, dict: src[i].dict})
		}
	}
	return b
}

// reserve pre-sizes every column's typed array for n total rows, so the
// gathers that follow append without growth reallocation. Callers that
// accumulate the full survivor selection before gathering pay exactly one
// allocation per column — and none at all for an empty selection, which
// the degenerate single-row arms of an OBDA unfolding hit constantly.
func (b *vecBuilder) reserve(n int) {
	if n <= 0 {
		return
	}
	for ci := range b.cols {
		dc := &b.cols[ci]
		switch dc.kind {
		case KindInt, KindBool, KindDate:
			if cap(dc.ints) < n {
				dc.ints = append(make([]int64, 0, n), dc.ints...)
			}
		case KindFloat:
			if cap(dc.floats) < n {
				dc.floats = append(make([]float64, 0, n), dc.floats...)
			}
		case KindString:
			if cap(dc.codes) < n {
				dc.codes = append(make([]uint32, 0, n), dc.codes...)
			}
		case KindGeometry:
			if cap(dc.geos) < n {
				dc.geos = append(make([]*Geometry, 0, n), dc.geos...)
			}
		}
	}
}

// gather appends the given source rows (by index) of src to the builder.
// src must have the column layout the builder was created from.
func (b *vecBuilder) gather(src []colvec, idx []int32) {
	base := b.n
	for ci := range b.cols {
		sc := &src[ci]
		dc := &b.cols[ci]
		anyNull := false
		if sc.nulls != nil {
			for _, i := range idx {
				if sc.nulls.get(int(i)) {
					anyNull = true
					break
				}
			}
		}
		if anyNull && dc.nulls == nil {
			dc.nulls = newNullBitmap(base + len(idx))
		}
		if dc.nulls != nil {
			// Keep the bitmap sized to the column (reallocate by words).
			need := (base + len(idx) + 63) >> 6
			for len(dc.nulls) < need {
				dc.nulls = append(dc.nulls, 0)
			}
		}
		switch dc.kind {
		case KindInt, KindBool, KindDate:
			for k, i := range idx {
				if sc.nulls.get(int(i)) {
					dc.nulls.set(base + k)
					dc.ints = append(dc.ints, 0)
					continue
				}
				dc.ints = append(dc.ints, sc.ints[i])
			}
		case KindFloat:
			for k, i := range idx {
				if sc.nulls.get(int(i)) {
					dc.nulls.set(base + k)
					dc.floats = append(dc.floats, 0)
					continue
				}
				dc.floats = append(dc.floats, sc.floats[i])
			}
		case KindString:
			for k, i := range idx {
				if sc.nulls.get(int(i)) {
					dc.nulls.set(base + k)
					dc.codes = append(dc.codes, 0)
					continue
				}
				dc.codes = append(dc.codes, sc.codes[i])
			}
		case KindGeometry:
			for k, i := range idx {
				if sc.nulls.get(int(i)) {
					dc.nulls.set(base + k)
					dc.geos = append(dc.geos, nil)
					continue
				}
				dc.geos = append(dc.geos, sc.geos[i])
			}
		default:
			// KindNull column (e.g. a vector of all NULLs): nothing typed
			// to copy; the bitmap rows appended below are all NULL.
			if dc.nulls == nil {
				dc.nulls = newNullBitmap(base + len(idx))
			}
			need := (base + len(idx) + 63) >> 6
			for len(dc.nulls) < need {
				dc.nulls = append(dc.nulls, 0)
			}
			for k := range idx {
				dc.nulls.set(base + k)
			}
		}
	}
	b.n += len(idx)
}

// build finalizes the builder into a vecData.
func (b *vecBuilder) build() *vecData {
	return &vecData{n: b.n, cols: b.cols}
}

// ---- relation bridging ---------------------------------------------------

// numRows returns the relation's cardinality from whichever backing it has.
func (r *relation) numRows() int {
	if r.rows != nil || r.vec == nil {
		return len(r.rows)
	}
	return r.vec.n
}

// matRows returns the relation's rows, materializing them from the vector
// backing on first use (and caching the result). Base-table scans carry
// both backings from the start, so this is free on the scan fast path;
// relations are owned by one goroutine at a time, matching the executor's
// materialized-operator discipline.
func (r *relation) matRows() []Row {
	if r.rows != nil || r.vec == nil || r.mat {
		return r.rows
	}
	r.rows = r.vec.materializeRows()
	r.mat = true
	return r.rows
}
