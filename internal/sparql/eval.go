package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"npdbench/internal/rdf"
)

// TripleSource is anything that can match triple patterns; nil positions
// are wildcards.
type TripleSource interface {
	Match(s, p, o *rdf.Term) []rdf.Triple
}

// ResultSet holds the solutions of a SELECT query.
type ResultSet struct {
	Vars []string
	Rows [][]rdf.Term // zero Term = unbound
}

// Len returns the number of solutions.
func (rs *ResultSet) Len() int { return len(rs.Rows) }

// String renders the result set as a TSV-ish table (diagnostics).
func (rs *ResultSet) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(rs.Vars, "\t"))
	sb.WriteByte('\n')
	for _, row := range rs.Rows {
		for i, t := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			if t.IsZero() {
				sb.WriteString("_")
			} else {
				sb.WriteString(t.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// VarIndex numbers the variables of one query. Every solution of the
// query is a row of Len terms: slot i holds the term bound to Names[i],
// the zero Term when the variable is unbound. Rows of one query share
// their width, so joining, filtering, deduplicating and projecting them
// needs no per-solution map.
type VarIndex struct {
	Names []string
	slots map[string]int
}

// NewVarIndex numbers names in order, skipping repeats.
func NewVarIndex(names ...string) *VarIndex {
	ix := &VarIndex{slots: make(map[string]int, len(names))}
	ix.add(names...)
	return ix
}

func (ix *VarIndex) add(names ...string) {
	for _, n := range names {
		if _, ok := ix.slots[n]; !ok {
			ix.slots[n] = len(ix.Names)
			ix.Names = append(ix.Names, n)
		}
	}
}

// Len is the width of every row over the index.
func (ix *VarIndex) Len() int { return len(ix.Names) }

// Slots maps names onto their slots; a name outside the index maps to -1.
func (ix *VarIndex) Slots(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		if s, ok := ix.slots[n]; ok {
			out[i] = s
		} else {
			out[i] = -1
		}
	}
	return out
}

// Index numbers the variables q's solutions carry when p (q's pattern or
// a rewriting of it) is evaluated: the select variables first, so that
// projection is a reslice, then those of p, of q's own pattern and of
// its GROUP BY.
func (q *Query) Index(p GraphPattern) *VarIndex {
	ix := NewVarIndex(q.SelectVars()...)
	ix.add(PatternVars(p)...)
	ix.add(PatternVars(q.Pattern)...)
	ix.add(q.GroupBy...)
	return ix
}

// Evaluate runs the query over the triple source.
func Evaluate(q *Query, src TripleSource) (*ResultSet, error) {
	ix := q.Index(q.Pattern)
	rows, err := EvalPattern(q.Pattern, ix, src)
	if err != nil {
		return nil, err
	}
	return Finalize(q, ix, rows), nil
}

// Finalize applies the solution modifiers of q (aggregation, computed
// select items, ORDER BY, projection, DISTINCT, LIMIT/OFFSET) to solution
// rows over ix, an index built by q.Index. OBDA engines call it after
// producing the rows from SQL; the triple-store path calls it from
// Evaluate. The rows are reused: computed items are written into their
// slots, and projection reslices each row.
func Finalize(q *Query, ix *VarIndex, rows [][]rdf.Term) *ResultSet {
	if q.HasAggregates() {
		rows = aggregateRows(q, ix, rows)
	} else {
		for _, it := range q.Items {
			if it.Expr == nil {
				continue
			}
			s := ix.slots[it.Var]
			for _, r := range rows {
				if v, err := EvalExpr(it.Expr, Binding{ix, r}); err == nil {
					r[s] = v
				}
			}
		}
	}
	if len(q.OrderBy) > 0 {
		sortRows(ix, rows, q.OrderBy)
	}
	rs := &ResultSet{Vars: q.SelectVars()}
	rs.Rows = project(ix, rs.Vars, rows)
	if q.Distinct {
		rs.Rows = Dedupe(rs.Rows, ix.Slots(rs.Vars))
	}
	rs.Rows = rs.Rows[min(q.Offset, len(rs.Rows)):]
	if q.Limit >= 0 {
		rs.Rows = rs.Rows[:min(q.Limit, len(rs.Rows))]
	}
	return rs
}

// project narrows each row to vars: a reslice when ix numbers vars first
// (Query.Index does, unless a variable is selected twice), a copy
// otherwise.
func project(ix *VarIndex, vars []string, rows [][]rdf.Term) [][]rdf.Term {
	w := len(vars)
	if w <= ix.Len() && slices.Equal(ix.Names[:w], vars) {
		for i, r := range rows {
			rows[i] = r[:w:w]
		}
		return rows
	}
	slots := ix.Slots(vars)
	alloc := rowAlloc{width: w}
	for i, r := range rows {
		p := alloc.row()
		for j, s := range slots {
			p[j] = r[s] // every select variable is in the index
		}
		rows[i] = p
	}
	return rows
}

// Dedupe keeps, in place, the first of every set of rows whose slots hold
// terms that render the same. A key string is allocated only for a row
// not seen before.
func Dedupe(rows [][]rdf.Term, slots []int) [][]rdf.Term {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	var key []byte
	for _, r := range rows {
		key = appendRowKey(key[:0], r, slots)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// appendRowKey appends the rdf.AppendKey encodings of the row's slots.
func appendRowKey(buf []byte, row []rdf.Term, slots []int) []byte {
	for _, s := range slots {
		buf = rdf.AppendKey(buf, row[s])
	}
	return buf
}

func sortRows(ix *VarIndex, rows [][]rdf.Term, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			vi, ei := EvalExpr(k.Expr, Binding{ix, rows[i]})
			vj, ej := EvalExpr(k.Expr, Binding{ix, rows[j]})
			if ei != nil && ej != nil {
				continue
			}
			if ei != nil {
				return !k.Desc // unbound sorts first ascending
			}
			if ej != nil {
				return k.Desc
			}
			c, err := CompareTermsSPARQL(vi, vj)
			if err != nil {
				c = rdf.CompareTerms(vi, vj)
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// FilterKeeps reports whether the binding satisfies the filter condition
// under SPARQL semantics (type errors eliminate the solution).
func FilterKeeps(cond Expr, b Binding) bool {
	v, err := EvalExpr(cond, b)
	if err != nil {
		return false
	}
	ok, err := ebv(v)
	return err == nil && ok
}

// FilterRows keeps, in place, the rows over ix that satisfy cond.
func FilterRows(ix *VarIndex, rows [][]rdf.Term, cond Expr) [][]rdf.Term {
	out := rows[:0]
	for _, r := range rows {
		if FilterKeeps(cond, Binding{ix, r}) {
			out = append(out, r)
		}
	}
	return out
}

// rowAlloc carves rows of one width out of shared chunks, so building
// solutions costs an allocation per chunk rather than per row.
type rowAlloc struct {
	width int
	free  []rdf.Term
	n     int
}

func (a *rowAlloc) row() []rdf.Term {
	if len(a.free) < a.width {
		a.free = make([]rdf.Term, a.width*min(max(a.n, 16), 1024))
	}
	r := a.free[:a.width:a.width]
	a.free = a.free[a.width:]
	a.n++
	return r
}

// merge writes the union of two compatible rows into a fresh row;
// ok=false, with nothing allocated, when they bind one variable to
// different terms.
func merge(l, r []rdf.Term, alloc *rowAlloc) ([]rdf.Term, bool) {
	for i, t := range r {
		if !t.IsZero() && !l[i].IsZero() && l[i] != t {
			return nil, false
		}
	}
	out := alloc.row()
	for i, t := range l {
		if t.IsZero() {
			t = r[i]
		}
		out[i] = t
	}
	return out, true
}

// Join computes the SPARQL join of two solution sequences over one index.
func Join(left, right [][]rdf.Term) [][]rdf.Term {
	return join(nil, left, right, nil, false)
}

// LeftJoin computes the SPARQL left join (OPTIONAL) of two solution
// sequences over ix. A merged row is kept when cond (nil for none) holds
// on it; a left row with no such partner is kept unextended (SPARQL 1.1
// §18.5). The condition sees both sides, which is why the FILTERs of an
// OPTIONAL's own group are its cond and not a filter on the right side.
func LeftJoin(ix *VarIndex, left, right [][]rdf.Term, cond Expr) [][]rdf.Term {
	return join(ix, left, right, cond, true)
}

// join pairs every left row with its compatible right rows: by nested
// loop over small inputs, and otherwise by a hash table over the slots
// bound in every row of both sides (merge still checks the rest).
func join(ix *VarIndex, left, right [][]rdf.Term, cond Expr, optional bool) [][]rdf.Term {
	if len(left) == 0 || (len(right) == 0 && !optional) {
		return nil
	}
	var table map[string][][]rdf.Term
	var shared []int
	var key []byte
	if len(left)*len(right) >= 1024 {
		shared = sharedBoundSlots(left, right)
	}
	if len(shared) > 0 {
		table = make(map[string][][]rdf.Term, len(right))
		for _, r := range right {
			key = appendRowKey(key[:0], r, shared)
			table[string(key)] = append(table[string(key)], r)
		}
	}
	alloc := rowAlloc{width: len(left[0])}
	var out [][]rdf.Term
	for _, l := range left {
		partners := right
		if table != nil {
			key = appendRowKey(key[:0], l, shared)
			partners = table[string(key)]
		}
		matched := false
		for _, r := range partners {
			if m, ok := merge(l, r, &alloc); ok && (cond == nil || FilterKeeps(cond, Binding{ix, m})) {
				out = append(out, m)
				matched = true
			}
		}
		if optional && !matched {
			out = append(out, l)
		}
	}
	return out
}

// sharedBoundSlots returns the slots bound in every row of both sides.
func sharedBoundSlots(left, right [][]rdf.Term) []int {
	var out []int
	for s := range left[0] {
		if boundEverywhere(left, s) && boundEverywhere(right, s) {
			out = append(out, s)
		}
	}
	return out
}

func boundEverywhere(rows [][]rdf.Term, s int) bool {
	for _, r := range rows {
		if r[s].IsZero() {
			return false
		}
	}
	return true
}

// Leaf answers one BGP of a pattern as rows over the evaluator's index.
// cond is the FILTER directly above the BGP (nil for none): the leaf may
// use it to prune, and Eval applies it to the leaf's rows either way.
type Leaf func(bgp *BGP, cond Expr) ([][]rdf.Term, error)

// Eval evaluates the algebra above the BGPs into rows over ix, with no
// solution modifiers applied: joins, left joins with their conditions,
// filters and unions of the rows leaf returns. The OBDA engine answers
// each BGP with SQL, the triple-store baseline by matching triples.
func Eval(p GraphPattern, ix *VarIndex, leaf Leaf) ([][]rdf.Term, error) {
	switch x := p.(type) {
	case *BGP:
		return leaf(x, nil)
	case *Filter:
		var rows [][]rdf.Term
		var err error
		if bgp, ok := x.Inner.(*BGP); ok {
			rows, err = leaf(bgp, x.Cond)
		} else {
			rows, err = Eval(x.Inner, ix, leaf)
		}
		if err != nil {
			return nil, err
		}
		return FilterRows(ix, rows, x.Cond), nil
	case *Group:
		cur := [][]rdf.Term{make([]rdf.Term, ix.Len())}
		for i, part := range x.Parts {
			next, err := Eval(part, ix, leaf)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				cur = next
			} else {
				cur = Join(cur, next)
			}
		}
		return cur, nil
	case *Optional:
		left, right, err := evalPair(x.Left, x.Right, ix, leaf)
		if err != nil {
			return nil, err
		}
		return LeftJoin(ix, left, right, x.Cond), nil
	case *Union:
		left, right, err := evalPair(x.Left, x.Right, ix, leaf)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	}
	return nil, fmt.Errorf("sparql: unknown pattern %T", p)
}

// evalPair evaluates the operands of a binary operator, left first.
func evalPair(l, r GraphPattern, ix *VarIndex, leaf Leaf) (left, right [][]rdf.Term, err error) {
	if left, err = Eval(l, ix, leaf); err == nil {
		right, err = Eval(r, ix, leaf)
	}
	return left, right, err
}

// EvalPattern evaluates a graph pattern over the source into solution rows
// over ix, which must number every variable of p.
func EvalPattern(p GraphPattern, ix *VarIndex, src TripleSource) ([][]rdf.Term, error) {
	return Eval(p, ix, func(bgp *BGP, _ Expr) ([][]rdf.Term, error) {
		return evalBGP(bgp, ix, src), nil
	})
}

// evalBGP extends the empty solution through the triple patterns,
// greedily choosing the most-bound pattern next.
func evalBGP(bgp *BGP, ix *VarIndex, src TripleSource) [][]rdf.Term {
	remaining := append([]TriplePattern{}, bgp.Triples...)
	cur := [][]rdf.Term{make([]rdf.Term, ix.Len())}
	alloc := rowAlloc{width: ix.Len()}
	for len(remaining) > 0 {
		// choose the pattern with the most positions bound in the
		// current solutions (all of them bind the same variables)
		best, bestScore := 0, -1
		for i, tp := range remaining {
			score := 0
			for _, t := range [3]TermOrVar{tp.S, tp.P, tp.O} {
				if !t.IsVar() || !cur[0][ix.slots[t.Var]].IsZero() {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var next [][]rdf.Term
		for _, r := range cur {
			next = matchPattern(tp, ix, src, r, &alloc, next)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// matchPattern appends to out every extension of row r by a triple that
// matches tp.
func matchPattern(tp TriplePattern, ix *VarIndex, src TripleSource, r []rdf.Term, alloc *rowAlloc, out [][]rdf.Term) [][]rdf.Term {
	pos := [3]TermOrVar{tp.S, tp.P, tp.O}
	var slot [3]int
	var fixed [3]*rdf.Term
	for i, t := range pos {
		slot[i] = -1
		switch {
		case !t.IsVar():
			fixed[i] = &pos[i].Term
		case !r[ix.slots[t.Var]].IsZero():
			fixed[i] = &r[ix.slots[t.Var]]
		default:
			slot[i] = ix.slots[t.Var]
		}
	}
	for _, tr := range src.Match(fixed[0], fixed[1], fixed[2]) {
		nr := alloc.row()
		copy(nr, r)
		ok := true
		for i, v := range [3]rdf.Term{tr.S, tr.P, tr.O} {
			// A variable repeated in the pattern (?x :p ?x) must match
			// the same term at each of its positions.
			if s := slot[i]; s >= 0 {
				ok = ok && (nr[s].IsZero() || nr[s] == v)
				nr[s] = v
			}
		}
		if ok {
			out = append(out, nr)
		}
	}
	return out
}

// aggregateRows implements GROUP BY + aggregate projection + HAVING. Each
// group yields a row binding its GROUP BY variables and aggregate items.
func aggregateRows(q *Query, ix *VarIndex, rows [][]rdf.Term) [][]rdf.Term {
	type group struct {
		key  []rdf.Term
		rows [][]rdf.Term
	}
	groupSlots := ix.Slots(q.GroupBy)
	groups := map[string]*group{}
	var order []*group
	var kb []byte
	for _, r := range rows {
		kb = appendRowKey(kb[:0], r, groupSlots)
		gr, ok := groups[string(kb)]
		if !ok {
			gr = &group{key: make([]rdf.Term, ix.Len())}
			for _, s := range groupSlots {
				gr.key[s] = r[s]
			}
			groups[string(kb)] = gr
			order = append(order, gr)
		}
		gr.rows = append(gr.rows, r)
	}
	if len(q.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{key: make([]rdf.Term, ix.Len())})
	}
	var out [][]rdf.Term
	for _, gr := range order {
		key := Binding{ix, gr.key}
		if q.Having != nil {
			hv, err := evalAggregateExpr(q.Having, ix, gr.rows, key)
			if err != nil {
				continue
			}
			ok, err := ebv(hv)
			if err != nil || !ok {
				continue
			}
		}
		nr := slices.Clone(gr.key)
		for _, it := range q.Items {
			if it.Expr == nil {
				continue // plain var: must be a GROUP BY var, already in key
			}
			v, err := evalAggregateExpr(it.Expr, ix, gr.rows, key)
			if err != nil {
				continue
			}
			nr[ix.slots[it.Var]] = v
		}
		out = append(out, nr)
	}
	return out
}

// evalAggregateExpr evaluates expressions that may contain aggregate calls
// over a group of solutions.
func evalAggregateExpr(e Expr, ix *VarIndex, rows [][]rdf.Term, key Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case *AggExpr:
		return computeAgg(x, ix, rows)
	case *BinExpr:
		if !exprHasAggregate(x) {
			return EvalExpr(x, key)
		}
		lv, err := evalAggregateExpr(x.L, ix, rows, key)
		if err != nil {
			return rdf.Term{}, err
		}
		rv, err := evalAggregateExpr(x.R, ix, rows, key)
		if err != nil {
			return rdf.Term{}, err
		}
		return evalBin(&BinExpr{Op: x.Op, L: &TermExpr{Term: lv}, R: &TermExpr{Term: rv}}, Binding{})
	case *NotExpr:
		v, err := evalAggregateExpr(x.E, ix, rows, key)
		if err != nil {
			return rdf.Term{}, err
		}
		ok, err := ebv(v)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!ok), nil
	default:
		return EvalExpr(e, key)
	}
}

func computeAgg(a *AggExpr, ix *VarIndex, rows [][]rdf.Term) (rdf.Term, error) {
	if a.Star {
		if a.Name != "COUNT" {
			return rdf.Term{}, fmt.Errorf("sparql: %s(*) invalid", a.Name)
		}
		return rdf.NewInteger(int64(len(rows))), nil
	}
	var vals []rdf.Term
	seen := map[string]bool{}
	var kb []byte
	for _, r := range rows {
		v, err := EvalExpr(a.Arg, Binding{ix, r})
		if err != nil {
			continue
		}
		if a.Distinct {
			kb = rdf.AppendKey(kb[:0], v)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		vals = append(vals, v)
	}
	switch a.Name {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM", "AVG":
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, ok := NumericValue(v)
			if !ok {
				return rdf.Term{}, errTypeError
			}
			if !isIntegerTyped(v) {
				allInt = false
			}
			sum += f
		}
		if a.Name == "AVG" {
			if len(vals) == 0 {
				return rdf.NewInteger(0), nil
			}
			avg := sum / float64(len(vals))
			return rdf.NewTypedLiteral(strconv.FormatFloat(avg, 'g', -1, 64), rdf.XSDDouble), nil
		}
		if allInt {
			return rdf.NewInteger(int64(sum)), nil
		}
		return rdf.NewTypedLiteral(strconv.FormatFloat(sum, 'g', -1, 64), rdf.XSDDouble), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, errTypeError
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := CompareTermsSPARQL(v, best)
			if err != nil {
				c = rdf.CompareTerms(v, best)
			}
			if (a.Name == "MIN" && c < 0) || (a.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %s", a.Name)
}
