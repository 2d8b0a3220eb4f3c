package core

import (
	"fmt"
	"strings"

	"npdbench/internal/obs"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/unfold"
)

// compiledPlan is the result of compiling one BGP (with its pushed
// filters) through rewrite → unfold → plan, or one aggregate-pushdown
// statement over such a plan (prep, sql and sqlMetrics only). It is what
// the plan cache stores and what concurrent clients share: it is never
// changed once published, and the executor never mutates a Prepared, so one
// plan serves any number of simultaneous executions. The plan keeps the
// unfolded statement prepared and as text, not as an AST.
type compiledPlan struct {
	// prep is the unfolded SQL statement prepared against the engine's
	// database: names resolved once, executed on every answer. nil means
	// the BGP is provably empty (every arm pruned).
	prep *sqldb.Prepared
	// vars lists the answer variables; output columns come in (v, v_t,
	// v_dt) triples in this order.
	vars []string
	// sql is the rendered statement text (diagnostics).
	sql string

	sqlMetrics sqldb.SQLMetrics

	// Simplicity measures replayed into PhaseStats on every execution,
	// cached or not (they describe the plan, not the compile run).
	treeWitnesses    int
	cqCount          int
	entailedAtoms    int
	unionArms        int
	prunedArms       int
	selfJoins        int
	subsumedArms     int
	staticPrunedArms int

	// filtersPushed[i] reports whether pushed filter i reached SQL in
	// every arm (aggregate pushdown requires all true).
	filtersPushed []bool
	// varInfos summarizes tag/datatype uniformity per answer variable
	// (aggregate pushdown's MIN/MAX/SUM faithfulness check).
	varInfos map[string]unfold.VarInfo

	// key and epoch are the plan's cache key and the epoch it was compiled
	// under (unset with the cache off): an aggregate-pushdown statement
	// built over the plan is cached under key plus its shape, guarded by
	// the same epoch.
	key   string
	epoch uint64
}

// addTo replays the plan-shape measures into the per-query stats.
func (p *compiledPlan) addTo(st *PhaseStats) {
	st.TreeWitnesses += p.treeWitnesses
	st.CQCount += p.cqCount
	st.EntailedAtoms += p.entailedAtoms
	st.UnionArms += p.unionArms
	st.PrunedArms += p.prunedArms
	st.SelfJoinsEliminated += p.selfJoins
	st.SubsumedArms += p.subsumedArms
	st.StaticPrunedArms += p.staticPrunedArms
	st.SQL.Joins += p.sqlMetrics.Joins
	st.SQL.LeftJoins += p.sqlMetrics.LeftJoins
	st.SQL.Unions += p.sqlMetrics.Unions
	st.SQL.InnerQueries += p.sqlMetrics.InnerQueries
}

// compiledPlanFor returns the plan for a BGP, from the cache when enabled.
// spawn creates the stage spans in the caller's trace position (top-level
// spans for answerBGP, children of the aggregate-pushdown span for the
// aggregate path). A hit still emits the compile-stage spans — marked
// cached, like the parse span of a pre-parsed query — so every trace
// carries the full taxonomy and a cached execution stays visible in
// -explain and the slow-query log.
func (e *Engine) compiledPlanFor(bgp *sparql.BGP, push []unfold.PushFilter, st *PhaseStats, spawn func(string) *obs.Span) (*compiledPlan, error) {
	if e.cache == nil {
		return e.compileBGP(bgp, push, st, spawn)
	}
	key := planKey(bgp, push)
	if plan, ok := e.cache.get(key); ok {
		st.PlanCacheHits++
		emitCachedSpans(plan, spawn)
		return plan, nil
	}
	epoch := e.cache.epochNow()
	plan, err := e.compileBGP(bgp, push, st, spawn)
	if err != nil {
		return nil, err
	}
	st.PlanCacheMisses++
	plan.key, plan.epoch = key, epoch
	e.cache.put(key, plan, epoch)
	return plan, nil
}

// emitCachedSpans records the compile stages of a cache hit: same span
// names as a real compilation, near-zero durations, cached=true.
func emitCachedSpans(p *compiledPlan, spawn func(string) *obs.Span) {
	rw := spawn("rewrite")
	rw.SetStr("cached", "true")
	rw.SetInt("cqs", p.cqCount)
	rw.SetInt("tree_witnesses", p.treeWitnesses)
	rw.SetInt("entailed_atoms", p.entailedAtoms)
	rw.End()
	un := spawn("unfold")
	un.SetStr("cached", "true")
	un.SetInt("union_arms", p.unionArms)
	un.SetInt("pruned_arms", p.prunedArms)
	un.End()
	pl := spawn("plan")
	pl.SetStr("cached", "true")
	pl.SetStr("cache", "hit")
	pl.SetInt("sql_len", len(p.sql))
	pl.End()
}

// rewriteComplete runs rw.Rewrite and refuses a truncated rewriting: a UCQ
// cut at MaxCQs lacks disjuncts, so the answers computed from it would be
// silently incomplete.
func rewriteComplete(rw *rewrite.Rewriter, cq *rewrite.CQ, protected []string) (*rewrite.Result, error) {
	res, err := rw.Rewrite(cq, protected)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, fmt.Errorf("core: rewriting truncated at MaxCQs=%d, answers would be incomplete", rw.CQLimit())
	}
	return res, nil
}

// compileBGP runs the compile half of the pipeline for one BGP: CQ
// translation, tree-witness rewriting, unfolding, and plan verification.
// Only compile timings are charged to st here; the plan-shape measures
// live on the returned plan so cached executions replay them too.
func (e *Engine) compileBGP(bgp *sparql.BGP, push []unfold.PushFilter, st *PhaseStats, spawn func(string) *obs.Span) (*compiledPlan, error) {
	// Blank-node variables (_bn…) introduced by the parser are local to
	// the BGP: they are existential, never projected, and are the
	// tree-witness fold candidates. Everything else is an answer variable
	// of the leaf and is protected from folding.
	var answerVars []string
	for _, v := range sparql.PatternVars(bgp) {
		if !strings.HasPrefix(v, "_bn") {
			answerVars = append(answerVars, v)
		}
	}
	cq, err := rewrite.FromBGP(bgp, e.spec.Onto, answerVars)
	if err != nil {
		return nil, err
	}
	if err := e.verifyCQ("translate", cq); err != nil {
		return nil, err
	}
	// Filter variables are protected alongside the answer variables: a
	// pushed comparison must see the real values, never a tree-witness
	// fold surrogate.
	protected := append([]string{}, answerVars...)
	for _, f := range push {
		protected = append(protected, f.Var)
	}

	plan := &compiledPlan{}
	rwSpan := spawn("rewrite")
	rwStart := obs.Now()
	rres, err := rewriteComplete(e.rewriter, cq, protected)
	if err != nil {
		rwSpan.End()
		return nil, err
	}
	st.RewriteTime += obs.Since(rwStart)
	plan.treeWitnesses = rres.TreeWitnesses
	plan.cqCount = rres.CQCount
	plan.entailedAtoms = rres.EntailedAtoms
	rwSpan.SetInt("cqs", rres.CQCount)
	rwSpan.SetInt("tree_witnesses", rres.TreeWitnesses)
	rwSpan.SetInt("entailed_atoms", rres.EntailedAtoms)
	rwSpan.End()
	if err := e.verifyUCQ("rewrite", rres.UCQ, cq.Answer); err != nil {
		return nil, err
	}

	unSpan := spawn("unfold")
	unStart := obs.Now()
	un, err := unfold.Unfold(rres.UCQ, e.mapping, push, unfold.Opts{Cons: e.cons})
	if err != nil {
		unSpan.End()
		return nil, err
	}
	st.UnfoldTime += obs.Since(unStart)
	plan.unionArms = un.Arms
	plan.prunedArms = un.PrunedArms
	plan.selfJoins = un.SelfJoinsEliminated
	plan.subsumedArms = un.SubsumedArms
	plan.staticPrunedArms = un.StaticPrunedCands
	plan.filtersPushed = un.FiltersPushed
	unSpan.SetInt("union_arms", un.Arms)
	unSpan.SetInt("pruned_arms", un.PrunedArms)
	unSpan.End()
	if un.Stmt == nil {
		return plan, nil // provably empty
	}

	// The plan stage covers everything between unfolding and running the
	// SQL: invariant verification, preparing the statement, plan-shape
	// metrics, statement text.
	plSpan := spawn("plan")
	if err := e.verifySQL("unfold", un.Stmt, un.Vars); err != nil {
		plSpan.End()
		return nil, err
	}
	prep, err := sqldb.Prepare(e.spec.DB, un.Stmt)
	if err != nil {
		plSpan.End()
		return nil, fmt.Errorf("core: preparing unfolded SQL: %w", err)
	}
	plan.prep = prep
	plan.vars = un.Vars
	plan.sqlMetrics = un.Metrics()
	plan.sql = un.Stmt.String()
	plan.varInfos = un.VarInfos()
	plSpan.SetInt("sql_joins", plan.sqlMetrics.Joins)
	plSpan.SetInt("sql_unions", plan.sqlMetrics.Unions)
	plSpan.SetInt("sql_len", len(plan.sql))
	plSpan.End()
	return plan, nil
}
