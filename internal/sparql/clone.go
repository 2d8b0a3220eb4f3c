package sparql

import "npdbench/internal/rdf"

// Clone returns a deep copy of the query: patterns, expressions, and
// modifier lists are all fresh nodes. Engines evaluate queries without
// mutating them, but a caller that shares one parsed query across
// concurrent clients (the mixer does) clones per client so no future
// in-place transform can turn that sharing into a race.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	out := &Query{
		Distinct: q.Distinct,
		Star:     q.Star,
		Pattern:  ClonePattern(q.Pattern),
		Having:   CloneExpr(q.Having),
		Limit:    q.Limit,
		Offset:   q.Offset,
	}
	if q.Prefixes != nil {
		out.Prefixes = make(rdf.PrefixMap, len(q.Prefixes))
		for k, v := range q.Prefixes {
			out.Prefixes[k] = v
		}
	}
	if q.Items != nil {
		out.Items = make([]SelectItem, len(q.Items))
		for i, it := range q.Items {
			out.Items[i] = SelectItem{Var: it.Var, Expr: CloneExpr(it.Expr)}
		}
	}
	if q.GroupBy != nil {
		out.GroupBy = append([]string(nil), q.GroupBy...)
	}
	if q.OrderBy != nil {
		out.OrderBy = make([]OrderKey, len(q.OrderBy))
		for i, o := range q.OrderBy {
			out.OrderBy[i] = OrderKey{Expr: CloneExpr(o.Expr), Desc: o.Desc}
		}
	}
	return out
}

// ClonePattern deep-copies a graph pattern tree.
func ClonePattern(p GraphPattern) GraphPattern {
	switch x := p.(type) {
	case nil:
		return nil
	case *BGP:
		return &BGP{Triples: append([]TriplePattern(nil), x.Triples...)}
	case *Group:
		parts := make([]GraphPattern, len(x.Parts))
		for i, part := range x.Parts {
			parts[i] = ClonePattern(part)
		}
		return &Group{Parts: parts}
	case *Filter:
		return &Filter{Inner: ClonePattern(x.Inner), Cond: CloneExpr(x.Cond)}
	case *Optional:
		return &Optional{Left: ClonePattern(x.Left), Right: ClonePattern(x.Right), Cond: CloneExpr(x.Cond)}
	case *Union:
		return &Union{Left: ClonePattern(x.Left), Right: ClonePattern(x.Right)}
	}
	return p
}

// CloneExpr deep-copies an expression tree (nil-safe).
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *VarExpr:
		return &VarExpr{Name: x.Name}
	case *TermExpr:
		return &TermExpr{Term: x.Term}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *NotExpr:
		return &NotExpr{E: CloneExpr(x.E)}
	case *CallExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &CallExpr{Name: x.Name, Args: args}
	case *AggExpr:
		return &AggExpr{Name: x.Name, Arg: CloneExpr(x.Arg), Distinct: x.Distinct, Star: x.Star}
	}
	return e
}
