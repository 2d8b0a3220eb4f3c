package core

import (
	"fmt"
	"strings"

	"npdbench/internal/obs"
	"npdbench/internal/planck"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/unfold"
)

// compiledPlan is the immutable result of compiling one BGP (with its
// pushed filters) through rewrite → static-prune → unfold → plan. It is
// what the plan cache stores and what concurrent clients share: the
// executor never mutates a SelectStmt, so one plan serves any number of
// simultaneous executions.
type compiledPlan struct {
	// unsatFilter marks a BGP proved answerless by contradictory pushed
	// filter bounds before any rewriting happened.
	unsatFilter bool
	// stmt is the unfolded SQL statement; nil (with unsatFilter false)
	// means the BGP is provably empty (every disjunct or arm pruned).
	stmt *sqldb.SelectStmt
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
	staticPrunedCQs  int
	staticPrunedArms int

	// filtersPushed[i] reports whether pushed filter i reached SQL in
	// every arm (aggregate pushdown requires all true).
	filtersPushed []bool
	// varInfos summarizes tag/datatype uniformity per answer variable
	// (aggregate pushdown's MIN/MAX/SUM faithfulness check).
	varInfos map[string]unfold.VarInfo
}

// addTo replays the plan-shape measures into the per-query stats.
func (p *compiledPlan) addTo(st *PhaseStats) {
	if p.unsatFilter {
		st.StaticUnsatFilters++
		return
	}
	st.TreeWitnesses += p.treeWitnesses
	st.CQCount += p.cqCount
	st.EntailedAtoms += p.entailedAtoms
	st.UnionArms += p.unionArms
	st.PrunedArms += p.prunedArms
	st.SelfJoinsEliminated += p.selfJoins
	st.SubsumedArms += p.subsumedArms
	st.StaticPrunedCQs += p.staticPrunedCQs
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
// carries the full taxonomy and a cached execution stays visible in the
// JSONL run log.
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
	e.cache.put(key, plan, epoch)
	return plan, nil
}

// emitCachedSpans records the compile stages of a cache hit: same span
// names as a real compilation, near-zero durations, cached=true. An
// unsat-filter plan emits nothing, matching the uncached short-circuit
// (which returns before the rewrite stage starts).
func emitCachedSpans(p *compiledPlan, spawn func(string) *obs.Span) {
	if p.unsatFilter {
		return
	}
	rw := spawn("rewrite")
	rw.SetStr("cached", "true")
	rw.SetInt("cqs", p.cqCount)
	rw.SetInt("tree_witnesses", p.treeWitnesses)
	rw.SetInt("entailed_atoms", p.entailedAtoms)
	rw.End()
	sp := spawn("static-prune")
	sp.SetStr("cached", "true")
	sp.End()
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
// translation, tree-witness rewriting, static pruning, unfolding, and plan
// verification. Only compile timings are charged to st here; the
// plan-shape measures live on the returned plan so cached executions
// replay them too.
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
	// Contradictory pushed-filter bounds prove the BGP answerless before
	// any rewriting happens (the filters are conjunctive: every solution
	// would have to satisfy all of them).
	if e.opts.StaticPrune && len(push) > 0 {
		if reason := planck.UnsatisfiableBounds(staticBounds(push)); reason != "" {
			return &compiledPlan{unsatFilter: true}, nil
		}
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
	ucq := rres.UCQ
	spSpan := spawn("static-prune")
	spSpan.SetInt("ucq_before", len(ucq))
	if e.opts.StaticPrune {
		pr := planck.PruneUCQ(ucq, e.spec.Onto)
		plan.staticPrunedCQs = pr.Dropped
		ucq = pr.Kept
		spSpan.SetInt("ucq_after", len(ucq))
		spSpan.End()
		if len(ucq) == 0 {
			return plan, nil // every disjunct statically unsatisfiable
		}
		if err := e.verifyUCQ("static-prune", ucq, cq.Answer); err != nil {
			return nil, err
		}
	} else {
		spSpan.SetStr("skipped", "true")
		spSpan.SetInt("ucq_after", len(ucq))
		spSpan.End()
	}

	unSpan := spawn("unfold")
	unStart := obs.Now()
	un, err := unfold.Unfold(ucq, e.mapping, push, unfold.Opts{Cons: e.cons, StaticPrune: e.opts.StaticPrune})
	if err != nil {
		unSpan.End()
		return nil, err
	}
	st.UnfoldTime += obs.Since(unStart)
	plan.unionArms = un.Arms
	plan.prunedArms = un.PrunedArms
	plan.selfJoins = un.SelfJoinsEliminated
	plan.subsumedArms = un.SubsumedArms
	plan.staticPrunedArms = un.StaticPrunedCands + un.StaticContradictions
	plan.filtersPushed = un.FiltersPushed
	unSpan.SetInt("union_arms", un.Arms)
	unSpan.SetInt("pruned_arms", un.PrunedArms)
	unSpan.End()
	if un.Stmt == nil {
		return plan, nil // provably empty
	}

	// The plan stage covers everything between unfolding and running the
	// SQL: invariant verification, plan-shape metrics, statement text.
	plSpan := spawn("plan")
	if err := e.verifySQL("unfold", un.Stmt, un.Vars); err != nil {
		plSpan.End()
		return nil, err
	}
	plan.stmt = un.Stmt
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
