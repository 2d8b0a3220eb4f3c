// Package sparql implements the SPARQL fragment exercised by the NPD
// benchmark: basic graph patterns, FILTER, OPTIONAL, UNION, DISTINCT,
// aggregates with GROUP BY/HAVING, ORDER BY and LIMIT/OFFSET, together with
// a parser and an evaluator over any triple source.
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"npdbench/internal/rdf"
)

// TermOrVar is either a variable (Var != "") or a concrete RDF term.
type TermOrVar struct {
	Var  string
	Term rdf.Term
}

// V returns a variable.
func V(name string) TermOrVar { return TermOrVar{Var: name} }

// T returns a concrete term.
func T(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

// IsVar reports whether the operand is a variable.
func (tv TermOrVar) IsVar() bool { return tv.Var != "" }

func (tv TermOrVar) String() string {
	if tv.IsVar() {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

// TriplePattern is a triple with variables allowed in any position.
type TriplePattern struct {
	S, P, O TermOrVar
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String() + " ."
}

// Vars returns the variable names of the pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	for _, t := range []TermOrVar{tp.S, tp.P, tp.O} {
		if t.IsVar() {
			out = append(out, t.Var)
		}
	}
	return out
}

// GraphPattern is a node of the SPARQL algebra.
type GraphPattern interface {
	patternNode()
	fmt.Stringer
}

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP struct {
	Triples []TriplePattern
}

// Group joins sub-patterns (SPARQL Join).
type Group struct {
	Parts []GraphPattern
}

// Filter restricts a pattern by a boolean expression.
type Filter struct {
	Inner GraphPattern
	Cond  Expr
}

// Optional is a left join. Cond holds the FILTERs of the OPTIONAL's own
// group (nil for none); it is evaluated on the merged solution, so it may
// read variables of either side (SPARQL 1.1 §18.2.2).
type Optional struct {
	Left, Right GraphPattern
	Cond        Expr
}

// Union merges the solutions of two patterns.
type Union struct {
	Left, Right GraphPattern
}

func (*BGP) patternNode()      {}
func (*Group) patternNode()    {}
func (*Filter) patternNode()   {}
func (*Optional) patternNode() {}
func (*Union) patternNode()    {}

func (b *BGP) String() string {
	parts := make([]string, len(b.Triples))
	for i, t := range b.Triples {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

func (g *Group) String() string {
	parts := make([]string, len(g.Parts))
	for i, p := range g.Parts {
		parts[i] = p.String()
	}
	return "{ " + strings.Join(parts, " ") + " }"
}

func (f *Filter) String() string {
	return f.Inner.String() + " FILTER(" + f.Cond.String() + ")"
}

func (o *Optional) String() string {
	if o.Cond != nil {
		return o.Left.String() + " OPTIONAL { " + o.Right.String() + " FILTER(" + o.Cond.String() + ") }"
	}
	return o.Left.String() + " OPTIONAL { " + o.Right.String() + " }"
}

func (u *Union) String() string {
	return "{ " + u.Left.String() + " } UNION { " + u.Right.String() + " }"
}

// SelectItem is one projection of the SELECT clause: a plain variable or an
// (Expr AS ?Var) binding, possibly aggregate.
type SelectItem struct {
	Var  string // output name
	Expr Expr   // nil for a plain variable projection
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Query is a parsed SPARQL SELECT query.
type Query struct {
	Prefixes rdf.PrefixMap
	Distinct bool
	Items    []SelectItem
	Star     bool
	Pattern  GraphPattern
	GroupBy  []string
	Having   Expr
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int
}

// HasAggregates reports whether any select item or HAVING uses an aggregate.
func (q *Query) HasAggregates() bool {
	for _, it := range q.Items {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return q.Having != nil || len(q.GroupBy) > 0
}

// SelectVars returns the output variable names in order.
func (q *Query) SelectVars() []string {
	out := make([]string, len(q.Items))
	for i, it := range q.Items {
		out[i] = it.Var
	}
	return out
}

func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if q.Star {
		sb.WriteString("*")
	}
	for i, it := range q.Items {
		if i > 0 || q.Star {
			sb.WriteByte(' ')
		}
		if it.Expr == nil {
			sb.WriteString("?" + it.Var)
		} else {
			fmt.Fprintf(&sb, "(%s AS ?%s)", it.Expr, it.Var)
		}
	}
	sb.WriteString(" WHERE { ")
	sb.WriteString(q.Pattern.String())
	sb.WriteString(" }")
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY")
		for _, g := range q.GroupBy {
			sb.WriteString(" ?" + g)
		}
	}
	if q.Having != nil {
		sb.WriteString(" HAVING(" + q.Having.String() + ")")
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" ORDER BY")
		for _, o := range q.OrderBy {
			if o.Desc {
				sb.WriteString(" DESC(" + o.Expr.String() + ")")
			} else {
				sb.WriteString(" " + o.Expr.String())
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.Offset)
	}
	return sb.String()
}

// Stats captures the paper's Table 7 per-query shape statistics.
type Stats struct {
	TriplePatterns int
	Joins          int // shared-variable connections between triple patterns
	Optionals      int
	HasAggregate   bool
	HasFilter      bool
	HasModifier    bool // DISTINCT / ORDER / LIMIT
	UnionArms      int
}

// ComputeStats walks the query and derives its structural statistics.
// The #joins counts, per the benchmark convention, the number of triple
// patterns minus the number of connected components linked by shared
// variables (i.e. how many join operations a bushy plan needs).
func (q *Query) ComputeStats() Stats {
	var s Stats
	var walk func(GraphPattern)
	var allTriples []TriplePattern
	walk = func(p GraphPattern) {
		switch x := p.(type) {
		case *BGP:
			allTriples = append(allTriples, x.Triples...)
		case *Group:
			for _, part := range x.Parts {
				walk(part)
			}
		case *Filter:
			s.HasFilter = true
			walk(x.Inner)
		case *Optional:
			s.Optionals++
			s.HasFilter = s.HasFilter || x.Cond != nil
			walk(x.Left)
			walk(x.Right)
		case *Union:
			s.UnionArms++
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(q.Pattern)
	s.TriplePatterns = len(allTriples)
	s.Joins = countJoins(allTriples)
	s.HasAggregate = q.HasAggregates()
	s.HasModifier = q.Distinct || len(q.OrderBy) > 0 || q.Limit >= 0
	return s
}

func countJoins(tps []TriplePattern) int {
	if len(tps) == 0 {
		return 0
	}
	// union-find over patterns sharing variables
	parent := make([]int, len(tps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string][]int)
	for i, tp := range tps {
		for _, v := range tp.Vars() {
			byVar[v] = append(byVar[v], i)
		}
	}
	joins := 0
	for _, ids := range byVar {
		for i := 1; i < len(ids); i++ {
			a, b := find(ids[0]), find(ids[i])
			if a != b {
				parent[a] = b
				joins++
			}
		}
	}
	return joins
}

// PatternVars returns the sorted set of variables mentioned in a pattern.
func PatternVars(p GraphPattern) []string {
	set := make(map[string]bool)
	var walk func(GraphPattern)
	walk = func(p GraphPattern) {
		switch x := p.(type) {
		case *BGP:
			for _, t := range x.Triples {
				for _, v := range t.Vars() {
					set[v] = true
				}
			}
		case *Group:
			for _, part := range x.Parts {
				walk(part)
			}
		case *Filter:
			walk(x.Inner)
		case *Optional:
			walk(x.Left)
			walk(x.Right)
		case *Union:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(p)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
