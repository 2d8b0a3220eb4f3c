// Package sqldb implements an embedded, in-memory relational database
// engine: typed storage with primary/foreign/unique constraints, hash and
// ordered indexes, a SQL lexer/parser for the select-project-join-union
// fragment used by OBDA mappings, a rule-based planner with two execution
// profiles, and a Volcano-style iterator executor.
//
// It is the substitute for the MySQL/PostgreSQL backends used in the NPD
// benchmark paper (EDBT 2015): the same engine runs under two planner
// profiles (ProfileHashJoin, ProfileSortMerge) so that the paper's
// two-backend comparison can be reproduced in-process.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds. KindNull is the zero value so that a zero Value is NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate // days since 1970-01-01, stored in I
	KindGeometry
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	case KindGeometry:
		return "GEOMETRY"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Point is a 2-D coordinate used by Geometry values.
type Point struct {
	X, Y float64
}

// Geometry is a polygon (closed ring) or point sequence. It exists so that
// the VIG generator can exercise the paper's geometry handling: bounding-box
// analysis and in-region generation of fresh values.
type Geometry struct {
	Points []Point
}

// BoundingBox returns the minimal axis-aligned rectangle enclosing g.
func (g *Geometry) BoundingBox() (minX, minY, maxX, maxY float64) {
	if g == nil || len(g.Points) == 0 {
		return 0, 0, 0, 0
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range g.Points {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return minX, minY, maxX, maxY
}

// Valid reports whether the polygon is closed and non-self-intersecting,
// the constraint MySQL enforces on POLYGON columns (paper, Sect. 5.1).
func (g *Geometry) Valid() bool {
	n := len(g.Points)
	if n < 4 {
		return false
	}
	if g.Points[0] != g.Points[n-1] {
		return false
	}
	// Check pairwise non-adjacent segment intersection (O(n^2); polygons in
	// this workload are small).
	seg := g.Points
	for i := 0; i < n-1; i++ {
		for j := i + 2; j < n-1; j++ {
			if i == 0 && j == n-2 {
				continue // first and last segments share a vertex
			}
			if segmentsIntersect(seg[i], seg[i+1], seg[j], seg[j+1]) {
				return false
			}
		}
	}
	return true
}

func segmentsIntersect(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return o1*o2 < 0 && o3*o4 < 0
}

func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func (g *Geometry) String() string {
	var sb strings.Builder
	sb.WriteString("POLYGON(")
	for i, p := range g.Points {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%g %g", p.X, p.Y)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64     // KindInt, KindBool (0/1), KindDate
	F    float64   // KindFloat
	S    string    // KindString
	G    *Geometry // KindGeometry
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// NewGeometry returns a geometry value.
func NewGeometry(g *Geometry) Value { return Value{Kind: KindGeometry, G: g} }

// ParseDate converts "YYYY-MM-DD" to a date value.
func ParseDate(s string) (Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Null, fmt.Errorf("sqldb: bad date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return Null, fmt.Errorf("sqldb: bad date %q", s)
	}
	return NewDate(daysFromCivil(y, m, d)), nil
}

// daysFromCivil converts a proleptic Gregorian date to days since 1970-01-01
// (Howard Hinnant's algorithm).
func daysFromCivil(y, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	mp := (m + 9) % 12
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era)*146097 + int64(doe) - 719468
}

// civilFromDays is the inverse of daysFromCivil.
func civilFromDays(z int64) (y, m, d int) {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	m = int((mp + 2) % 12)
	m++
	if mp >= 10 {
		yy++
	}
	return int(yy), m, d
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool reports the truth value of a boolean; NULL and non-bools are false.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt, KindDate:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// AsInt coerces numeric values to int64.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	}
	return 0, false
}

// String renders the value in SQL-literal style.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		y, m, d := civilFromDays(v.I)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case KindGeometry:
		return v.G.String()
	}
	return "?"
}

// Key encodes the value into a string usable as a hash-index or
// duplicate-detection key. Distinct values yield distinct keys within and
// across numeric kinds that compare equal (1 and 1.0 share a key).
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "\x01" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return "\x01" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x02" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "\x03" + v.S
	case KindBool:
		return "\x04" + strconv.FormatInt(v.I, 10)
	case KindDate:
		return "\x05" + strconv.FormatInt(v.I, 10)
	case KindGeometry:
		return "\x06" + v.G.String()
	}
	return "\x07"
}

// Compare totally orders two non-NULL values; numeric kinds are mutually
// comparable (int/float/date), all other comparisons require equal kinds.
// NULL compares less than everything (used only for sorting; SQL comparison
// semantics with NULL are handled in the expression evaluator).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			}
			return 0, nil
		}
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.S, b.S), nil
	case KindBool:
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	case KindGeometry:
		return strings.Compare(a.G.String(), b.G.String()), nil
	}
	return 0, fmt.Errorf("sqldb: cannot compare %s values", a.Kind)
}

// Equal reports whether two values are equal under SQL comparison (NULL is
// not equal to anything, including NULL).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (Geometry payloads are shared;
// they are immutable by convention).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowKey encodes the projection of row r on columns cols as a composite key.
func RowKey(r Row, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		k := r[c].Key()
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String()
}

// appendKey appends the Key() encoding of v to buf without materializing a
// string: two values append equal bytes exactly when their Key() strings
// are equal. The dedup and hash-join paths hash these bytes out of a
// reusable buffer instead of building one string per row.
func (v Value) appendKey(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, 0x00, 'N')
	case KindInt:
		return strconv.AppendInt(append(buf, 0x01), v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(append(buf, 0x01), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(buf, 0x02), v.F, 'g', -1, 64)
	case KindString:
		return append(append(buf, 0x03), v.S...)
	case KindBool:
		return strconv.AppendInt(append(buf, 0x04), v.I, 10)
	case KindDate:
		return strconv.AppendInt(append(buf, 0x05), v.I, 10)
	case KindGeometry:
		return append(append(buf, 0x06), v.G.String()...)
	}
	return append(buf, 0x07)
}

// keyEq reports whether two values have equal Key() encodings — the dedup
// equivalence (NULLs match, 1 and 1.0 match, kinds otherwise separate) —
// without allocating either key.
func (v Value) keyEq(o Value) bool {
	vi, vIsInt := v.intClass()
	oi, oIsInt := o.intClass()
	if vIsInt || oIsInt {
		return vIsInt && oIsInt && vi == oi
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindFloat:
		// Equal non-integral floats format identically; NaN always
		// formats as "NaN" so NaNs share a key.
		return v.F == o.F || (math.IsNaN(v.F) && math.IsNaN(o.F))
	case KindString:
		return v.S == o.S
	case KindBool, KindDate:
		return v.I == o.I
	case KindGeometry:
		return v.G.String() == o.G.String()
	}
	return false
}

// intClass reports whether the value keys into the shared integer class
// (\x01 prefix): integers, and floats with small integral values.
func (v Value) intClass() (int64, bool) {
	switch v.Kind {
	case KindInt:
		return v.I, true
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return int64(v.F), true
		}
	}
	return 0, false
}

// appendRowKey appends the composite key of row r over cols (all columns
// when cols is nil) to buf, length-prefixing each column like RowKey.
func appendRowKey(buf []byte, r Row, cols []int) []byte {
	if cols == nil {
		for _, v := range r {
			buf = appendCell(buf, v)
		}
		return buf
	}
	for _, c := range cols {
		buf = appendCell(buf, r[c])
	}
	return buf
}

func appendCell(buf []byte, v Value) []byte {
	mark := len(buf)
	buf = append(buf, 0, 0, 0, 0) // key length, fixed 4-byte prefix
	buf = v.appendKey(buf)
	n := len(buf) - mark - 4
	buf[mark] = byte(n >> 24)
	buf[mark+1] = byte(n >> 16)
	buf[mark+2] = byte(n >> 8)
	buf[mark+3] = byte(n)
	return buf
}

// rowKeyEq reports RowKey equality of two rows over all columns.
func rowKeyEq(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].keyEq(b[i]) {
			return false
		}
	}
	return true
}

// hashBytes is 64-bit FNV-1a, inlined so the dedup path needs no
// hash.Hash allocation.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
