package core

import (
	"fmt"
	"strings"

	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/unfold"
)

// Aggregate pushdown: the paper's journal-version queries (q15–q21) exist
// to stress "semantic query optimisation in the SPARQL-to-SQL translation"
// around aggregation. When the query is a single (possibly filtered) BGP
// with plain-variable grouping and simple aggregates, the whole
// aggregation is compiled into the unfolded SQL:
//
//	SELECT g…, COUNT(v_x) FROM (SELECT DISTINCT * FROM <union>) GROUP BY g…
//
// The inner DISTINCT enforces the RDF set semantics of the virtual graph
// (union arms can derive the same solution repeatedly) before counting.
// Queries outside this fragment fall back to in-memory aggregation over
// the translated rows.

// tryAggregatePushdown attempts the SQL compilation; ok=false means the
// query is outside the pushable fragment. Its pipeline stages are traced as
// children of an "aggregate-pushdown" span so a fallback attempt stays
// distinguishable from the regular BGP stages that follow it; an attempt
// that started compiling but was abandoned tags that span abandoned=true so
// the trace and the phase stats stay reconcilable.
func (e *Engine) tryAggregatePushdown(q *sparql.Query, qc *queryCtx) (rs *sparql.ResultSet, ok bool, err error) {
	st := qc.st
	if !q.HasAggregates() || q.Having != nil {
		return nil, false, nil
	}
	var bgp *sparql.BGP
	var filters []unfold.PushFilter
	var cond sparql.Expr
	switch p := q.Pattern.(type) {
	case *sparql.BGP:
		bgp = p
	case *sparql.Filter:
		inner, ok := p.Inner.(*sparql.BGP)
		if !ok {
			return nil, false, nil
		}
		// Every filter conjunct must be pushable, otherwise rows would be
		// aggregated before filtering.
		var all bool
		if filters, all = pushableFilters(p.Cond); !all {
			return nil, false, nil
		}
		bgp = inner
		cond = p.Cond
	default:
		return nil, false, nil
	}
	if len(bgp.Triples) == 0 {
		return nil, false, nil
	}
	// Select items: plain group variables or simple aggregates over vars.
	var aggs []aggItem
	groupSet := map[string]bool{}
	for _, g := range q.GroupBy {
		groupSet[g] = true
	}
	for _, it := range q.Items {
		if it.Expr == nil {
			if !groupSet[it.Var] {
				return nil, false, nil // plain var must be grouped
			}
			continue
		}
		agg, ok := it.Expr.(*sparql.AggExpr)
		if !ok {
			return nil, false, nil
		}
		item := aggItem{outVar: it.Var, name: agg.Name, distinct: agg.Distinct}
		if !agg.Star {
			v, ok := agg.Arg.(*sparql.VarExpr)
			if !ok {
				return nil, false, nil
			}
			item.argVar = v.Name
		}
		aggs = append(aggs, item)
	}
	if len(aggs) == 0 {
		return nil, false, nil
	}

	// Compile the BGP through the shared (cacheable) pipeline.
	ag := qc.tr.StartSpan("aggregate-pushdown")
	defer func() {
		if !ok && err == nil {
			ag.SetStr("abandoned", "true")
		}
		ag.End()
	}()
	plan, err := e.compiledPlanFor(bgp, filters, st, ag.StartChild)
	if err != nil {
		return nil, false, err
	}
	plan.addTo(st)
	if plan.prep == nil {
		// Unsatisfiable filter bounds, an empty UCQ, or every arm pruned:
		// aggregate over a provably empty solution set.
		return emptyAggregate(q), true, nil
	}

	// Every filter conjunct must actually have been compiled into every
	// arm — a filter silently skipped in SQL would over-count. The
	// unfolder reports that per filter.
	if cond != nil {
		for _, p := range plan.filtersPushed {
			if !p {
				return nil, false, nil
			}
		}
		for _, v := range sparql.ExprVars(cond) {
			if !containsStr(plan.vars, v) {
				return nil, false, nil
			}
		}
	}

	// MIN/MAX/SUM/AVG operate on the lexical column directly, which is only
	// faithful when the variable never carries IRIs (term-kind would be
	// lost) — check the arms' constant tag columns.
	varInfos := plan.varInfos
	for _, a := range aggs {
		if a.name == "COUNT" || a.argVar == "" {
			continue
		}
		if !varInfos[a.argVar].AlwaysLiteral {
			return nil, false, nil
		}
	}

	// The wrapper reads only answer variables of the plan.
	for _, g := range q.GroupBy {
		if !containsStr(plan.vars, g) {
			return nil, false, nil
		}
	}
	for _, a := range aggs {
		if a.argVar != "" && !containsStr(plan.vars, a.argVar) {
			return nil, false, nil
		}
	}
	w, err := e.aggregateStmt(plan, q.GroupBy, aggs)
	if err != nil {
		// SQL that does not bind is a fallback condition, like SQL that
		// fails to execute (below).
		return nil, false, nil
	}

	exSpan := ag.StartChild("execute")
	exStart := obs.Now()
	res, err := e.execStmt(w.prep, qc, exSpan)
	exSpan.End()
	if err != nil {
		// Cancellation is not a fallback condition: re-running the query
		// in memory would defeat the client's disconnect or deadline.
		if ctxErr := qc.cancelled(); ctxErr != nil {
			return nil, false, ctxErr
		}
		// e.g. SUM over a non-numeric literal column: SQL raises a type
		// error where SPARQL semantics silently unbinds — fall back to the
		// in-memory path, which implements the SPARQL behaviour.
		return nil, false, nil
	}
	st.ExecTime += obs.Since(exStart)
	exSpan.SetInt("rows", len(res.Rows))
	st.UnfoldedSQL = w.sql
	st.SQL.Joins += w.sqlMetrics.Joins
	st.SQL.Unions += w.sqlMetrics.Unions
	st.SQL.InnerQueries += w.sqlMetrics.InnerQueries

	// Finalize with the aggregation stripped (it already happened in SQL),
	// over rows of the select variables, then the group variables.
	flat := *q
	flat.GroupBy = nil
	flat.Having = nil
	items := make([]sparql.SelectItem, len(q.Items))
	for i, it := range q.Items {
		items[i] = sparql.SelectItem{Var: it.Var}
	}
	flat.Items = items
	ix := sparql.NewVarIndex(append(flat.SelectVars(), q.GroupBy...)...)

	// Translate rows: 3 columns per group var, then one per agg.
	asSpan := ag.StartChild("assemble")
	defer asSpan.End()
	trStart := obs.Now()
	rows := translateRows(ix.Slots(q.GroupBy), ix.Len(), res)
	for i, a := range aggs {
		col, slot := 3*len(q.GroupBy)+i, ix.Slots([]string{a.outVar})[0]
		for r, row := range res.Rows {
			if v := row[col]; !v.IsNull() {
				rows[r][slot] = aggregateTerm(a.name, v, varInfos[a.argVar])
			}
		}
	}
	st.TranslateTime += obs.Since(trStart)

	return sparql.Finalize(&flat, ix, rows), true, nil
}

// aggItem is one aggregate of the SELECT list.
type aggItem struct {
	outVar   string
	name     string
	argVar   string // "" for COUNT(*)
	distinct bool
}

// aggShape keys the statement of one (GROUP BY, aggregates) shape over a
// plan: everything aggregateSQL reads besides the plan's statement.
func aggShape(groupBy []string, aggs []aggItem) string {
	var sb strings.Builder
	for _, g := range groupBy {
		sb.WriteString(g)
		sb.WriteByte(0)
	}
	for _, a := range aggs {
		sb.WriteByte(1)
		sb.WriteString(a.name)
		sb.WriteByte(0)
		sb.WriteString(a.argVar)
		if a.distinct {
			sb.WriteByte(2)
		}
	}
	return sb.String()
}

// aggregateStmt returns the pushdown statement of one (GROUP BY,
// aggregates) shape over plan. With the cache on it is a cache entry of
// its own, keyed by the plan's key and the shape and put under the epoch
// the plan was compiled in, so every statement counts against the one
// bound and none built over an invalidated plan is published.
func (e *Engine) aggregateStmt(plan *compiledPlan, groupBy []string, aggs []aggItem) (*compiledPlan, error) {
	var key string
	if e.cache != nil {
		key = plan.key + "\x1c" + aggShape(groupBy, aggs)
		if w, ok := e.cache.get(key); ok {
			return w, nil
		}
	}
	// The plan keeps the union prepared and as text, not as an AST, so the
	// statement is built around a placeholder that stands for the union in
	// binding, rendering and metrics alike.
	union := sqldb.NewSelect()
	union.Items = []sqldb.SelectItem{{Star: true}}
	union.From = []sqldb.TableRef{&sqldb.BaseTable{Name: "u"}}
	outer := aggregateSQL(union, groupBy, aggs)
	prep, err := sqldb.PrepareWith(e.spec.DB, outer, union, plan.prep)
	if err != nil {
		return nil, err
	}
	placeholder := "(" + union.String() + ") AS u"
	m := outer.Metrics()
	m.Joins += plan.sqlMetrics.Joins
	m.LeftJoins += plan.sqlMetrics.LeftJoins
	m.Unions += plan.sqlMetrics.Unions
	m.InnerQueries += plan.sqlMetrics.InnerQueries
	w := &compiledPlan{
		prep:       prep,
		sql:        strings.Replace(outer.String(), placeholder, "("+plan.sql+") AS u", 1),
		sqlMetrics: m,
	}
	if e.cache != nil {
		e.cache.put(key, w, plan.epoch)
	}
	return w, nil
}

// aggregateSQL builds the pushdown statement over the unfolded union:
//
//	SELECT g…, AGG(…) FROM (SELECT DISTINCT * FROM (<union>) AS u) AS d GROUP BY g…
//
// Each group variable contributes its (lex, tag, dt) column triple.
func aggregateSQL(union *sqldb.SelectStmt, groupBy []string, aggs []aggItem) *sqldb.SelectStmt {
	middle := sqldb.NewSelect()
	middle.Distinct = true
	middle.Items = []sqldb.SelectItem{{Star: true}}
	middle.From = []sqldb.TableRef{&sqldb.SubqueryTable{Query: union, Alias: "u"}}

	outer := sqldb.NewSelect()
	outer.From = []sqldb.TableRef{&sqldb.SubqueryTable{Query: middle, Alias: "d"}}
	for _, g := range groupBy {
		for _, suffix := range []string{"", "_t", "_dt"} {
			col := "v_" + g + suffix
			outer.Items = append(outer.Items, sqldb.SelectItem{
				Expr: &sqldb.ColRef{Table: "d", Name: col}, Alias: col,
			})
			outer.GroupBy = append(outer.GroupBy, &sqldb.ColRef{Table: "d", Name: col})
		}
	}
	for i, a := range aggs {
		f := &sqldb.FuncExpr{Name: a.name, Distinct: a.distinct}
		if a.argVar == "" {
			f.Star = true
		} else {
			f.Args = []sqldb.Expr{&sqldb.ColRef{Table: "d", Name: "v_" + a.argVar}}
		}
		outer.Items = append(outer.Items, sqldb.SelectItem{Expr: f, Alias: fmt.Sprintf("agg_%d", i)})
	}
	return outer
}

// aggregateTerm converts a SQL aggregate value into an RDF literal.
// MIN/MAX return one of the input values, so the variable's uniform
// datatype (when the arms agree on one) is preserved; computed aggregates
// (COUNT/SUM/AVG) derive the datatype from the SQL value kind.
func aggregateTerm(name string, v sqldb.Value, info unfold.VarInfo) rdf.Term {
	if (name == "MIN" || name == "MAX") && info.DatatypeKnown && info.UniformDatatype != "" {
		return rdf.NewTypedLiteral(v.String(), info.UniformDatatype)
	}
	switch v.Kind {
	case sqldb.KindInt:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDInteger)
	case sqldb.KindFloat:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDDouble)
	case sqldb.KindDate:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDDate)
	case sqldb.KindBool:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDBoolean)
	}
	return rdf.NewLiteral(v.String())
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// emptyAggregate returns the SPARQL-mandated result over an empty solution
// set: COUNT yields 0, other aggregates yield no binding; with GROUP BY
// there are no groups at all.
func emptyAggregate(q *sparql.Query) *sparql.ResultSet {
	rs := &sparql.ResultSet{Vars: q.SelectVars()}
	if len(q.GroupBy) > 0 {
		return rs
	}
	row := make([]rdf.Term, len(q.Items))
	for i, it := range q.Items {
		if agg, ok := it.Expr.(*sparql.AggExpr); ok && agg.Name == "COUNT" {
			row[i] = rdf.NewInteger(0)
		}
	}
	rs.Rows = append(rs.Rows, row)
	return rs
}
