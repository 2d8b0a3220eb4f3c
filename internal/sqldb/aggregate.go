package sqldb

import (
	"fmt"
)

// aggPlan is the bound grouping/aggregation path of a SELECT block.
type aggPlan struct {
	keys   []evalFn
	having groupFn // nil without HAVING
	items  []groupFn
}

// groupFn computes an expression over one group's rows.
type groupFn func(rows []Row) (Value, error)

// bindAggregate binds GROUP BY keys, HAVING and the SELECT list of an
// aggregating block against the input layout cols.
func bindAggregate(s *SelectStmt, cols []colMeta) (*aggPlan, []colMeta, error) {
	a := &aggPlan{keys: make([]evalFn, len(s.GroupBy))}
	for i, g := range s.GroupBy {
		fn, err := bindExpr(g, cols)
		if err != nil {
			return nil, nil, err
		}
		a.keys[i] = fn
	}
	out := make([]colMeta, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("sqldb: SELECT * is not allowed with aggregation")
		}
		out = append(out, itemCol(it))
	}
	if s.Having != nil {
		var err error
		if a.having, err = bindGroupExpr(s.Having, cols); err != nil {
			return nil, nil, err
		}
	}
	a.items = make([]groupFn, len(s.Items))
	for i, it := range s.Items {
		fn, err := bindGroupExpr(it.Expr, cols)
		if err != nil {
			return nil, nil, err
		}
		a.items[i] = fn
	}
	return a, out, nil
}

// eval groups the input rows (groups in order of first appearance) and
// computes one output row per group that passes HAVING.
func (a *aggPlan) eval(input *relation) (*relation, error) {
	type group struct {
		rows []Row
	}
	groups := make(map[string]*group)
	var order []*group
	var kb []byte
	for _, row := range input.rows {
		kb = kb[:0]
		for _, fn := range a.keys {
			v, err := fn(row)
			if err != nil {
				return nil, err
			}
			kb = appendCell(kb, v)
		}
		g, ok := groups[string(kb)]
		if !ok {
			g = &group{}
			groups[string(kb)] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, row)
	}
	// Aggregates with no GROUP BY over an empty input still yield one group.
	if len(a.keys) == 0 && len(order) == 0 {
		order = append(order, &group{})
	}
	out := &relation{}
	for _, g := range order {
		if a.having != nil {
			hv, err := a.having(g.rows)
			if err != nil {
				return nil, err
			}
			if hv.IsNull() || !hv.Bool() {
				continue
			}
		}
		nr := make(Row, len(a.items))
		for i, fn := range a.items {
			v, err := fn(g.rows)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// bindGroupExpr binds an expression for grouped context: aggregate calls
// consume the whole group; everything else is evaluated on the group's
// first row (queries are expected to group by the non-aggregated columns,
// as all NPD benchmark queries do).
func bindGroupExpr(e Expr, cols []colMeta) (groupFn, error) {
	if f, ok := e.(*FuncExpr); ok && isAggregateName(f.Name) {
		return bindAggregateCall(f, cols)
	}
	if !exprHasAggregate(e) {
		fn, err := bindExpr(e, cols)
		if err != nil {
			return nil, err
		}
		return func(rows []Row) (Value, error) {
			if len(rows) == 0 {
				return Null, nil
			}
			return fn(rows[0])
		}, nil
	}
	switch x := e.(type) {
	case *BinOp:
		l, err := bindGroupExpr(x.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := bindGroupExpr(x.R, cols)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(rows []Row) (Value, error) {
			lv, err := l(rows)
			if err != nil {
				return Null, err
			}
			rv, err := r(rows)
			if err != nil {
				return Null, err
			}
			return applyBinOp(op, constFn(lv), constFn(rv), nil)
		}, nil
	case *NotExpr:
		inner, err := bindGroupExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		return func(rows []Row) (Value, error) {
			v, err := inner(rows)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			return NewBool(!v.Bool()), nil
		}, nil
	case *IsNullExpr:
		inner, err := bindGroupExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		neg := x.Negate
		return func(rows []Row) (Value, error) {
			v, err := inner(rows)
			if err != nil {
				return Null, err
			}
			return NewBool(v.IsNull() != neg), nil
		}, nil
	}
	return nil, fmt.Errorf("sqldb: unsupported aggregate expression %s", e)
}

func constFn(v Value) evalFn {
	return func(Row) (Value, error) { return v, nil }
}

// bindAggregateCall binds COUNT/SUM/AVG/MIN/MAX (with DISTINCT and *).
func bindAggregateCall(f *FuncExpr, cols []colMeta) (groupFn, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return nil, fmt.Errorf("sqldb: %s(*) is not valid", f.Name)
		}
		return func(rows []Row) (Value, error) { return NewInt(int64(len(rows))), nil }, nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sqldb: %s expects one argument", f.Name)
	}
	argFn, err := bindExpr(f.Args[0], cols)
	if err != nil {
		return nil, err
	}
	return func(rows []Row) (Value, error) {
		return computeAggregate(f.Name, f.Distinct, argFn, rows)
	}, nil
}

// computeAggregate evaluates one aggregate over a group's rows.
func computeAggregate(name string, distinct bool, argFn evalFn, rows []Row) (Value, error) {
	var vals []Value
	var seen map[string]bool
	if distinct {
		seen = map[string]bool{}
	}
	for _, row := range rows {
		v, err := argFn(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch name {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		allInt := true
		var fi int64
		var ff float64
		for _, v := range vals {
			if v.Kind == KindInt {
				fi += v.I
				ff += float64(v.I)
				continue
			}
			allInt = false
			fv, ok := v.AsFloat()
			if !ok {
				return Null, fmt.Errorf("sqldb: %s over non-numeric value", name)
			}
			ff += fv
		}
		if name == "SUM" {
			if allInt {
				return NewInt(fi), nil
			}
			return NewFloat(ff), nil
		}
		return NewFloat(ff / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Null, err
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Null, fmt.Errorf("sqldb: unknown aggregate %s", name)
}
