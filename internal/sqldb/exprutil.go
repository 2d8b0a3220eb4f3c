package sqldb

// Expression utilities shared by the executor, the unfolder's semantic
// query optimizations, the mapping optimizer and the static analyzer:
// splitting WHERE clauses into conjuncts, conjunct-set containment,
// re-qualifying column references when a subquery is flattened into its
// enclosing arm, and generic traversal.

// Conjuncts splits an expression at top-level ANDs. A nil expression
// yields nil; anything that is not an AND is returned as a single
// conjunct.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll joins conjuncts back into one expression (nil when empty).
func AndAll(conds []Expr) Expr {
	var out Expr
	for _, c := range conds {
		if out == nil {
			out = c
		} else {
			out = &BinOp{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// ConjunctSet is one candidate of Subsume: a source's condition as the set
// of its rendered conjuncts, compared only against candidates of the same
// Group (the rest of the source — table, projection, term maps — rendered
// into one key).
type ConjunctSet struct {
	Group string
	Conjs map[string]bool
}

// Subsume is the one syntactic containment test behind T-mapping
// optimization, the redundant-assertion lint and union-arm subsumption.
// It reports which candidates survive: a candidate is dropped when a
// surviving candidate of its group has a subset of its conjuncts, because
// that one admits every row this one does. Of equal sets the earlier
// survives.
func Subsume(sets []ConjunctSet) (keep []bool) {
	keep = make([]bool, len(sets))
	groups := make(map[string][]int)
	for i, s := range sets {
		keep[i] = true
		groups[s.Group] = append(groups[s.Group], i)
	}
	for _, g := range groups {
		for _, i := range g {
			for _, j := range g {
				if i == j || !keep[j] || !subset(sets[j].Conjs, sets[i].Conjs) ||
					(j > i && len(sets[j].Conjs) == len(sets[i].Conjs)) {
					continue
				}
				keep[i] = false
				break
			}
		}
	}
	return keep
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// QualifyColumns returns a deep copy of e with every column reference
// re-qualified by alias (alias "" removes qualifiers). The unfolder uses
// it to hoist a mapping view's WHERE clause onto a base-table alias; the
// analyzer uses alias "" to compare conditions modulo qualification.
func QualifyColumns(e Expr, alias string) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColRef:
		return &ColRef{Table: alias, Name: x.Name}
	case *Lit:
		return x
	case *BinOp:
		return &BinOp{Op: x.Op, L: QualifyColumns(x.L, alias), R: QualifyColumns(x.R, alias)}
	case *NotExpr:
		return &NotExpr{E: QualifyColumns(x.E, alias)}
	case *IsNullExpr:
		return &IsNullExpr{E: QualifyColumns(x.E, alias), Negate: x.Negate}
	case *InExpr:
		out := &InExpr{E: QualifyColumns(x.E, alias), Negate: x.Negate}
		for _, it := range x.List {
			out.List = append(out.List, QualifyColumns(it, alias))
		}
		return out
	case *LikeExpr:
		return &LikeExpr{E: QualifyColumns(x.E, alias), Pattern: QualifyColumns(x.Pattern, alias), Negate: x.Negate}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, QualifyColumns(a, alias))
		}
		return out
	}
	return e
}

// WalkExpr visits e and every sub-expression in pre-order. A nil
// expression is not visited.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *BinOp:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *NotExpr:
		WalkExpr(x.E, visit)
	case *IsNullExpr:
		WalkExpr(x.E, visit)
	case *InExpr:
		WalkExpr(x.E, visit)
		for _, it := range x.List {
			WalkExpr(it, visit)
		}
	case *LikeExpr:
		WalkExpr(x.E, visit)
		WalkExpr(x.Pattern, visit)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	}
}

// ColumnRefs collects every column reference in e (pre-order).
func ColumnRefs(e Expr) []*ColRef {
	var out []*ColRef
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
	})
	return out
}
