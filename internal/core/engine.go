// Package core is the OBDA engine of this reproduction — the system under
// test in the NPD benchmark. It implements the four-phase query-answering
// workflow the paper describes (Sect. 3):
//
//  1. starting phase — load ontology + mappings, classify the TBox, and
//     (by default) compile the hierarchy inferences into the mapping as
//     T-mappings;
//  2. query rewriting — tree-witness rewriting for existential axioms
//     (toggleable), plus classic hierarchy UCQ expansion when T-mappings
//     are disabled;
//  3. query translation (unfolding) — UCQ × mappings → one SQL statement
//     with semantic query optimizations;
//  4. query execution + result translation — run the SQL on the embedded
//     relational engine and reconstruct RDF terms.
//
// Every phase reports the Table 1 measures (times and simplicity metrics).
package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"
	"unicode/utf8"

	"npdbench/internal/analyze"
	"npdbench/internal/obs"
	"npdbench/internal/owl"
	"npdbench/internal/planck"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/unfold"
)

// Spec bundles the three OBDA components: ontology, mappings, data source.
type Spec struct {
	Onto     *owl.Ontology
	Mapping  *r2rml.Mapping
	DB       *sqldb.Database
	Prefixes rdf.PrefixMap
}

// Options configures reasoning behaviour. DefaultOptions is the one engine
// that ships: the commands and the mixer start from it and override only
// Existential (the paper's own toggle), Parallelism, VerifyPlans and Obs.
// TMappings, Constraints and PlanCache are reference switches for the
// identity and soundness tests and the bench oracle, not deployment
// settings: off, they select the unoptimized paths those checks compare
// against. MaxCQs bounds the rewriting of the classic UCQ-expansion path.
// Unfolding always deletes the mapping candidates that IRI-template arc
// consistency proves cannot join; no option switches that off.
type Options struct {
	// TMappings compiles the hierarchy into the mapping at load time
	// (Ontop's approach; the default mode in the paper's experiments).
	TMappings bool
	// Existential enables tree-witness rewriting. The paper runs the
	// benchmark both with and without it.
	Existential bool
	// MaxCQs bounds the rewriting size (0 = default).
	MaxCQs int
	// Constraints derives database constraints (keys, NOT NULL, value
	// classes) via the static analyzer at load time and applies the
	// constraint-driven unfolding optimizations: key-based self-join
	// elimination, NULL-guard elision, subsumed-arm elimination.
	Constraints bool
	// VerifyPlans controls the per-transform plan verifier: every
	// intermediate plan (translated CQ, rewritten UCQ, unfolded SQL) is
	// checked against the planck invariant catalog, failing the query with
	// a structured diagnostic naming the offending transform. The zero
	// value (VerifyAuto) verifies under `go test` only.
	VerifyPlans VerifyMode
	// PlanCache memoizes per-BGP compilation results (rewritten UCQ,
	// unfolded SQL plan, projection/tag metadata) and aggregate-pushdown
	// statements in one bounded map, so repeated executions of the same
	// BGP+filter shape pay execute-only cost. Cached plans are immutable
	// and safe to share across concurrent Answer calls. The cache holds
	// DefaultPlanCacheSize entries.
	PlanCache bool
	// Parallelism caps the intra-query parallel workers each SQL
	// statement may use (union-arm fan-out, partitioned hash joins,
	// morsel-parallel scans in sqldb). 0 means runtime.NumCPU(); 1 forces
	// fully sequential execution (the pre-parallel behaviour). Results
	// are bit-identical at every setting; only wall time changes.
	Parallelism int
	// Deprecated: BatchSize is ignored. It selected sqldb's vectorized
	// batch executor, which was removed; the row-at-a-time executor is the
	// only one. The field stays so existing callers keep compiling.
	BatchSize int
	// Obs enables observability: per-query span traces, operator-level
	// execution profiles, and process metrics. nil means fully off — the
	// pipeline then pays a single nil check per stage.
	Obs *obs.Observer
}

// DefaultOptions returns the configuration the paper uses for the main
// experiments: T-mappings on, existential reasoning on, database
// constraints on, plan cache on.
func DefaultOptions() Options {
	return Options{TMappings: true, Existential: true, Constraints: true, PlanCache: true}
}

// LoadStats reports the starting-phase measures.
type LoadStats struct {
	LoadTime            time.Duration
	MappingAssertions   int // before saturation
	SaturatedAssertions int // after T-mapping saturation
	Classes             int
	ObjectProperties    int
	DataProperties      int
}

// Engine answers SPARQL queries over a virtual RDF graph.
type Engine struct {
	spec     Spec
	opts     Options
	mapping  *r2rml.Mapping // saturated when TMappings is on
	cons     *analyze.Constraints
	rewriter *rewrite.Rewriter
	load     LoadStats
	verifier *planck.Verifier
	verify   bool
	cache    *planCache     // nil when Options.PlanCache is off
	met      *engineMetrics // nil when the observer has no registry
	par      int            // resolved Options.Parallelism (>= 1)
	pool     *sqldb.Pool    // shared worker pool; nil when par == 1
}

// engineMetrics holds the per-engine metric handles, resolved once at
// construction so the per-query hot path never formats a metric name.
type engineMetrics struct {
	queries      *obs.Counter
	errors       *obs.Counter
	querySeconds *obs.Histogram
	// stageSeconds is indexed in pipeline order: rewrite, unfold,
	// execute, assemble.
	stageSeconds [4]*obs.Histogram
	// parallel counts the intra-query parallel execution work, indexed
	// like parallelMetricNames: tasks, workers, union arms, join
	// partitions, morsels.
	parallel [5]*obs.Counter
	// inflight gauges queries currently inside Answer.
	inflight *obs.Gauge
	// usage accumulates the per-query resource accounting totals,
	// indexed like usageMetricNames: rows scanned, rows produced, bytes
	// materialized.
	usage [3]*obs.Counter
}

// usageMetricNames is the npdbench_usage_* family, in engineMetrics.usage
// index order.
var usageMetricNames = [3]string{
	"npdbench_usage_rows_scanned_total",
	"npdbench_usage_rows_produced_total",
	"npdbench_usage_bytes_materialized_total",
}

// parallelMetricNames is the npdbench_exec_parallel_* family, in the index
// order engineMetrics.parallel and ParallelStats use.
var parallelMetricNames = [5]string{
	"npdbench_exec_parallel_tasks_total",
	"npdbench_exec_parallel_workers_total",
	"npdbench_exec_parallel_union_arms_total",
	"npdbench_exec_parallel_join_partitions_total",
	"npdbench_exec_parallel_morsels_total",
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	m := &engineMetrics{
		queries:      reg.Counter("npdbench_queries_total"),
		errors:       reg.Counter("npdbench_query_errors_total"),
		querySeconds: reg.Histogram("npdbench_query_seconds", obs.DefDurationBuckets),
	}
	for i, stage := range [4]string{"rewrite", "unfold", "execute", "assemble"} {
		m.stageSeconds[i] = reg.Histogram(fmt.Sprintf("npdbench_stage_seconds{stage=%q}", stage), obs.DefDurationBuckets)
	}
	for i, name := range parallelMetricNames {
		m.parallel[i] = reg.Counter(name)
	}
	m.inflight = reg.Gauge("npdbench_queries_inflight")
	for i, name := range usageMetricNames {
		m.usage[i] = reg.Counter(name)
	}
	return m
}

// NewEngine performs the starting phase and returns a ready engine.
func NewEngine(spec Spec, opts Options) (*Engine, error) {
	if spec.Onto == nil || spec.Mapping == nil || spec.DB == nil {
		return nil, fmt.Errorf("core: spec needs ontology, mapping, and database")
	}
	start := obs.Now()
	e := &Engine{spec: spec, opts: opts}
	e.load.MappingAssertions = spec.Mapping.AssertionCount()
	stats := spec.Onto.Stats()
	e.load.Classes = stats.Classes
	e.load.ObjectProperties = stats.ObjectProps
	e.load.DataProperties = stats.DataProps
	// Classification is forced here so that query time excludes it.
	_ = spec.Onto.SubConceptsOf(owl.NamedConcept(""))
	if opts.TMappings {
		e.mapping = rewrite.Saturate(spec.Mapping, spec.Onto)
	} else {
		e.mapping = spec.Mapping
	}
	if opts.Constraints {
		e.cons = analyze.DeriveConstraints(spec.DB)
	}
	e.load.SaturatedAssertions = e.mapping.AssertionCount()
	e.verifier = &planck.Verifier{Onto: spec.Onto, Cons: e.cons, DB: spec.DB}
	e.verify = opts.VerifyPlans.enabled()
	e.rewriter = &rewrite.Rewriter{
		Onto:            spec.Onto,
		ExpandHierarchy: !opts.TMappings,
		Existential:     opts.Existential,
		MaxCQs:          opts.MaxCQs,
	}
	if opts.PlanCache {
		e.cache = newPlanCache(DefaultPlanCacheSize, opts.Obs.Registry())
	}
	e.par = opts.Parallelism
	if e.par <= 0 {
		e.par = runtime.NumCPU()
	}
	if e.par > 1 {
		// One pool for the engine's lifetime: concurrent queries share the
		// same bounded helper supply, so total goroutines stay capped no
		// matter how many clients fan out.
		e.pool = sqldb.NewPool(e.par)
	}
	e.met = newEngineMetrics(opts.Obs.Registry())
	e.load.LoadTime = obs.Since(start)
	return e, nil
}

// PlanCacheStats snapshots the compiled-query cache counters; ok is false
// when the cache is disabled.
func (e *Engine) PlanCacheStats() (PlanCacheStats, bool) {
	if e.cache == nil {
		return PlanCacheStats{}, false
	}
	return e.cache.stats(), true
}

// InvalidatePlans drops every cached compiled plan. Safe to call
// concurrently with queries: in-flight compilations from before the
// invalidation cannot repopulate the cache.
func (e *Engine) InvalidatePlans() {
	if e.cache != nil {
		e.cache.invalidate()
	}
}

// SetMapping replaces the engine's R2RML mapping, re-running the starting
// phase work that depends on it (T-mapping saturation) and invalidating the plan cache once. Reconfiguration is not
// synchronized with in-flight queries; callers must quiesce query traffic
// first, exactly as for swapping the engine itself.
func (e *Engine) SetMapping(mp *r2rml.Mapping) {
	e.spec.Mapping = mp
	if e.opts.TMappings {
		e.mapping = rewrite.Saturate(mp, e.spec.Onto)
	} else {
		e.mapping = mp
	}
	e.InvalidatePlans()
}

// LoadStats returns the starting-phase statistics.
func (e *Engine) LoadStats() LoadStats { return e.load }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// DB exposes the underlying database (benchmark harness access).
func (e *Engine) DB() *sqldb.Database { return e.spec.DB }

// Pool exposes the engine's shared worker pool (nil when execution is
// sequential); serving-path tests assert it is idle again after a
// canceled or failed query.
func (e *Engine) Pool() *sqldb.Pool { return e.pool }

// PhaseStats carries the per-query measures of the paper's Table 1.
type PhaseStats struct {
	RewriteTime   time.Duration
	UnfoldTime    time.Duration
	ExecTime      time.Duration
	TranslateTime time.Duration
	TotalTime     time.Duration

	// Simplicity R-Query measures, plus the query atoms the rewriter
	// dropped because the rest of their CQ entails them under the TBox.
	TreeWitnesses int
	CQCount       int
	EntailedAtoms int
	// Simplicity U-Query measures.
	UnionArms           int
	PrunedArms          int
	SelfJoinsEliminated int
	SubsumedArms        int
	// Deprecated: StaticPrunedCQs is always 0. It counted UCQ disjuncts
	// deleted by a UCQ pruning stage that was removed; the field stays
	// so existing readers keep compiling.
	StaticPrunedCQs int
	// StaticPrunedArms counts the mapping candidates unfolding deleted
	// before its candidate walk: own-constant mismatches and IRI-template
	// arc inconsistencies.
	StaticPrunedArms int
	// Plan-cache measures: BGP compilations served from, respectively
	// added to, the compiled-query cache during this query.
	PlanCacheHits   int
	PlanCacheMisses int
	// Parallel reports the intra-query parallel execution work of this
	// query's SQL statements (all zero when Options.Parallelism is 1 or
	// the statements were too small to fan out).
	Parallel ParallelStats
	// Usage is the frozen per-query resource accounting block (nil when
	// observability is fully off): base-table rows scanned, operator
	// rows/bytes produced, parallel tasks and cache hits.
	Usage *obs.UsageSnapshot
	SQL   sqldb.SQLMetrics
	// UnfoldedSQL is the translated query text (diagnostics; empty when
	// all arms were pruned).
	UnfoldedSQL string
}

// ParallelStats counts the intra-query parallel-operator work of one
// query: tasks dispatched by the sqldb parallel driver, helper goroutines
// launched, union arms evaluated in parallel, hash-join partitions built,
// and scan/filter/probe morsels processed.
type ParallelStats struct {
	Tasks          int
	Workers        int
	UnionArms      int
	JoinPartitions int
	Morsels        int
	// Deprecated: Batches is always 0. It counted the batches of sqldb's
	// vectorized executor, which was removed; the field stays so existing
	// readers keep compiling.
	Batches int
}

// WeightRU is the paper's "Weight of R+U": rewriting+unfolding cost over
// total cost.
func (p PhaseStats) WeightRU() float64 {
	if p.TotalTime <= 0 {
		return 0
	}
	return float64(p.RewriteTime+p.UnfoldTime) / float64(p.TotalTime)
}

// Answer is a query result with its phase statistics and, when the engine's
// observer enables them, the span trace and operator-level execution
// profiles of the run.
type Answer struct {
	*sparql.ResultSet
	Stats PhaseStats
	// Trace is the hierarchical span tree of this query (nil unless
	// Options.Obs.Tracing).
	Trace *obs.Trace
	// Profiles holds one EXPLAIN ANALYZE operator tree per SQL statement
	// executed (nil unless Options.Obs.ExecProfile).
	Profiles []*sqldb.OpProfile
}

// queryCtx carries the per-query observability state alongside the phase
// statistics through the pattern evaluator.
type queryCtx struct {
	st       *PhaseStats
	tr       *obs.Trace
	usage    *obs.Usage
	name     string
	profiles []*sqldb.OpProfile
	// vars numbers the query's variables: every solution the pattern
	// evaluator builds is a row over it.
	vars *sparql.VarIndex
	// ctx is the query's cancellation signal (context.Background() on the
	// batch paths): a client disconnect or per-query deadline stops the
	// pattern evaluator at the next stage boundary and the SQL executor at
	// the next morsel boundary.
	ctx context.Context
	// settled flips when the query's terminal accounting (inflight gauge,
	// error counters, usage publication) has run, making failQuery and
	// finishAnswer idempotent — the panic-recovery path and a regular
	// error return can never double-settle the gauge.
	settled bool
}

// cancelled returns the query context's error once it is done.
func (qc *queryCtx) cancelled() error {
	if qc.ctx == nil {
		return nil
	}
	return qc.ctx.Err()
}

// settleOnce reports whether terminal accounting should run: true exactly
// the first time it is called for this query.
func (qc *queryCtx) settleOnce() bool {
	if qc.settled {
		return false
	}
	qc.settled = true
	return true
}

// ParseQuery parses SPARQL with the spec's prefix bindings.
func (e *Engine) ParseQuery(src string) (*sparql.Query, error) {
	return sparql.Parse(src, e.spec.Prefixes)
}

// Query parses and answers a SPARQL query.
func (e *Engine) Query(src string) (*Answer, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx is Query under a cancellation context: when ctx is canceled or
// its deadline passes, the pipeline stops cooperatively (pattern evaluator
// at stage boundaries, SQL operators at morsel boundaries) and returns
// ctx.Err(), with pool slots and the inflight gauge released.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Answer, error) {
	qc := e.beginQuery(ctx, queryLabel(src))
	ps := qc.tr.StartSpan("parse")
	q, err := e.ParseQuery(src)
	ps.End()
	if err != nil {
		return nil, e.failQuery(qc, err)
	}
	return e.answer(q, qc)
}

// Answer runs the full query-answering pipeline on a pre-parsed query. The
// parse stage still appears in the trace (marked cached) so every trace
// carries the complete taxonomy.
func (e *Engine) Answer(q *sparql.Query) (*Answer, error) {
	return e.AnswerNamedCtx(context.Background(), q, "")
}

// AnswerCtx is Answer under a cancellation context (see QueryCtx).
func (e *Engine) AnswerCtx(ctx context.Context, q *sparql.Query) (*Answer, error) {
	return e.AnswerNamedCtx(ctx, q, "")
}

// AnswerNamed is Answer with a caller-supplied query label (e.g. the NPD
// mix's "q12") used by the slow-query log.
func (e *Engine) AnswerNamed(q *sparql.Query, name string) (*Answer, error) {
	return e.AnswerNamedCtx(context.Background(), q, name)
}

// AnswerNamedCtx is AnswerNamed under a cancellation context (see
// QueryCtx).
func (e *Engine) AnswerNamedCtx(ctx context.Context, q *sparql.Query, name string) (*Answer, error) {
	qc := e.beginQuery(ctx, name)
	ps := qc.tr.StartSpan("parse")
	ps.SetStr("cached", "true")
	ps.End()
	return e.answer(q, qc)
}

// queryLabel compresses raw SPARQL text into a short slow-log label of at
// most 80 bytes, cut at a rune boundary so the label stays valid UTF-8.
func queryLabel(src string) string {
	s := strings.Join(strings.Fields(src), " ")
	if len(s) > 80 {
		cut := 77
		for cut > 0 && !utf8.RuneStart(s[cut]) {
			cut--
		}
		s = s[:cut] + "..."
	}
	return s
}

// beginQuery opens the per-query observability state: the trace, the
// resource-usage tracker, and the in-flight gauge.
// With observability fully off every field stays nil.
func (e *Engine) beginQuery(ctx context.Context, name string) *queryCtx {
	qc := &queryCtx{st: &PhaseStats{}, name: name, ctx: ctx}
	qc.tr = e.opts.Obs.StartQuery("query")
	qc.usage = e.opts.Obs.NewUsage()
	if e.met != nil {
		e.met.inflight.Add(1)
	}
	return qc
}

func (e *Engine) answer(q *sparql.Query, qc *queryCtx) (*Answer, error) {
	// A panicking operator must not leak the inflight gauge: settle the
	// query's terminal accounting, then let the panic continue. Pool slots
	// are already safe — parState.run releases helpers via defer.
	defer func() {
		if r := recover(); r != nil {
			_ = e.failQuery(qc, fmt.Errorf("core: panic during query: %v", r))
			panic(r)
		}
	}()
	start := obs.Now()
	st := qc.st
	if q.HasAggregates() {
		rs, ok, err := e.tryAggregatePushdown(q, qc)
		if err != nil {
			return nil, e.failQuery(qc, err)
		}
		if ok {
			st.TotalTime = obs.Since(start)
			return e.finishAnswer(rs, qc), nil
		}
		// Fall through: in-memory aggregation over translated rows.
		// The abandoned attempt keeps its spans in the trace (tagged
		// abandoned=true) and its wall time stays in TotalTime, but its
		// stage timings, shape counters, and profiles are dropped so the
		// per-stage stats describe only the path that answers the query.
		*st = PhaseStats{}
		qc.profiles = nil
	}
	qc.vars = q.Index(q.Pattern)
	rows, err := e.evalPattern(q.Pattern, qc)
	if err != nil {
		return nil, e.failQuery(qc, err)
	}
	tStart := obs.Now()
	rs := sparql.Finalize(q, qc.vars, rows)
	st.TranslateTime += obs.Since(tStart)
	st.TotalTime = obs.Since(start)
	return e.finishAnswer(rs, qc), nil
}

// finishAnswer settles a successful query: freezes the usage snapshot
// into the stats and the root span, finishes the trace, offers it to the
// slow log (dropping it from the answer unless tracing is on), and
// publishes the per-query metrics.
func (e *Engine) finishAnswer(rs *sparql.ResultSet, qc *queryCtx) *Answer {
	st := qc.st
	if !qc.settleOnce() {
		// Already settled (defensive; the success path settles exactly once).
		return &Answer{ResultSet: rs, Stats: *st}
	}
	if qc.usage != nil {
		qc.usage.AddCacheHits(int64(st.PlanCacheHits))
		st.Usage = qc.usage.Snapshot()
		if qc.tr != nil {
			st.Usage.Annotate(qc.tr.Root)
		}
	}
	qc.tr.Finish()
	tr := qc.tr
	if !e.opts.Obs.FinishQuery(qc.name, tr, st.TotalTime, st.Usage, profilesValue(qc.profiles)) {
		tr = nil
	}
	e.recordMetrics(st)
	return &Answer{ResultSet: rs, Stats: *st, Trace: tr, Profiles: qc.profiles}
}

// profilesValue erases the profile slice for the obs slow log without
// handing it a non-nil interface wrapping an empty slice.
func profilesValue(p []*sqldb.OpProfile) any {
	if len(p) == 0 {
		return nil
	}
	return p
}

// failQuery settles a failed or canceled query: finishes the trace, counts
// the error, publishes the work the query did before dying (rows scanned by
// a canceled query are real load), and releases the in-flight gauge.
// Idempotent — the panic-recovery defer and a regular error return can both
// call it. Failed runs skip the latency histograms and the slow log (their
// timings are partial).
func (e *Engine) failQuery(qc *queryCtx, err error) error {
	if !qc.settleOnce() {
		return err
	}
	qc.tr.Finish()
	e.countQuery(true)
	if e.met != nil {
		e.met.inflight.Add(-1)
		if u := qc.usage.Snapshot(); u != nil {
			for i, v := range [3]int64{u.RowsScanned, u.RowsProduced, u.BytesMaterialized} {
				e.met.usage[i].Add(v)
			}
		}
	}
	return err
}

// countQuery bumps the query counters; failed runs skip the latency
// histograms (their timings are partial).
func (e *Engine) countQuery(failed bool) {
	if e.met == nil {
		return
	}
	e.met.queries.Inc()
	if failed {
		e.met.errors.Inc()
	}
}

// recordMetrics publishes the per-query phase timings and resource usage
// to the registry via the handles resolved at engine construction (no
// name formatting here).
func (e *Engine) recordMetrics(st *PhaseStats) {
	if e.met == nil {
		return
	}
	e.countQuery(false)
	e.met.inflight.Add(-1)
	e.met.querySeconds.Observe(st.TotalTime.Seconds())
	for i, d := range [4]time.Duration{st.RewriteTime, st.UnfoldTime, st.ExecTime, st.TranslateTime} {
		e.met.stageSeconds[i].Observe(d.Seconds())
	}
	if u := st.Usage; u != nil {
		for i, v := range [3]int64{u.RowsScanned, u.RowsProduced, u.BytesMaterialized} {
			e.met.usage[i].Add(v)
		}
	}
}

// evalPattern evaluates the SPARQL algebra into rows over qc.vars. Each
// BGP goes through the rewrite → unfold → execute pipeline, with the
// simple comparisons of a FILTER directly above it pushed into the SQL;
// the operators above the BGPs combine row sets in memory (the way OBDA
// engines stage OPTIONAL/UNION around SQL fragments).
func (e *Engine) evalPattern(p sparql.GraphPattern, qc *queryCtx) ([][]rdf.Term, error) {
	return sparql.Eval(p, qc.vars, func(bgp *sparql.BGP, cond sparql.Expr) ([][]rdf.Term, error) {
		if err := qc.cancelled(); err != nil {
			return nil, err
		}
		push, _ := pushableFilters(cond)
		return e.answerBGP(bgp, push, qc)
	})
}

// pushableFilters extracts var-op-constant comparisons from a filter
// conjunction; these are pushed into the unfolded SQL (and re-checked on
// the translated rows, which keeps pushing safe). all reports whether
// every conjunct was one.
func pushableFilters(cond sparql.Expr) (out []unfold.PushFilter, all bool) {
	all = true
	var walk func(sparql.Expr)
	walk = func(ex sparql.Expr) {
		b, ok := ex.(*sparql.BinExpr)
		if !ok {
			all = false
			return
		}
		if b.Op == "&&" {
			walk(b.L)
			walk(b.R)
			return
		}
		n := len(out)
		switch b.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			if v, okv := b.L.(*sparql.VarExpr); okv {
				if t, okt := b.R.(*sparql.TermExpr); okt && t.Term.IsLiteral() {
					out = append(out, unfold.PushFilter{Var: v.Name, Op: b.Op, Val: t.Term})
				}
			}
			if v, okv := b.R.(*sparql.VarExpr); okv {
				if t, okt := b.L.(*sparql.TermExpr); okt && t.Term.IsLiteral() {
					out = append(out, unfold.PushFilter{Var: v.Name, Op: flipOp(b.Op), Val: t.Term})
				}
			}
		}
		if len(out) == n {
			all = false
		}
	}
	walk(cond)
	return out, all
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// answerBGP runs the rewrite/unfold/execute pipeline for one BGP. When
// tracing is on it emits one span per pipeline stage (rewrite, unfold,
// plan, execute, assemble) under the query trace.
// The compile half goes through the plan cache when enabled; execution
// always runs live against the database.
func (e *Engine) answerBGP(bgp *sparql.BGP, push []unfold.PushFilter, qc *queryCtx) ([][]rdf.Term, error) {
	st := qc.st
	if len(bgp.Triples) == 0 {
		return [][]rdf.Term{make([]rdf.Term, qc.vars.Len())}, nil
	}
	plan, err := e.compiledPlanFor(bgp, push, st, qc.tr.StartSpan)
	if err != nil {
		return nil, err
	}
	plan.addTo(st)
	if plan.prep == nil {
		// Every union arm pruned: provably no answers.
		return nil, nil
	}
	if st.UnfoldedSQL == "" {
		st.UnfoldedSQL = plan.sql
	}

	exSpan := qc.tr.StartSpan("execute")
	exStart := obs.Now()
	res, err := e.execStmt(plan.prep, qc, exSpan)
	if err != nil {
		exSpan.End()
		return nil, fmt.Errorf("core: executing unfolded SQL: %w", err)
	}
	st.ExecTime += obs.Since(exStart)
	exSpan.SetInt("rows", len(res.Rows))
	exSpan.End()

	asSpan := qc.tr.StartSpan("assemble")
	trStart := obs.Now()
	slots := qc.vars.Slots(plan.vars)
	rows := translateRows(slots, qc.vars.Len(), res)
	st.TranslateTime += obs.Since(trStart)
	// Distinct at the BGP level: SQL UNION ALL plus multiple mapping
	// assertions can produce duplicate RDF solutions that a virtual graph
	// (an RDF *set*) must not expose twice.
	rows = sparql.Dedupe(rows, slots)
	asSpan.SetInt("bindings_in", len(res.Rows))
	asSpan.SetInt("bindings_out", len(rows))
	asSpan.End()
	return rows, nil
}

// execStmt runs one prepared SQL statement under the engine's execution
// options: intra-query parallelism from the shared worker pool, EXPLAIN
// ANALYZE profile collection when enabled, and per-statement parallel
// counters folded into the phase stats, the execute span, and the
// npdbench_exec_parallel_* metric family.
func (e *Engine) execStmt(prep *sqldb.Prepared, qc *queryCtx, span *obs.Span) (*sqldb.Result, error) {
	opt := sqldb.ExecOptions{Parallelism: e.par, Pool: e.pool, Usage: qc.usage, Ctx: qc.ctx}
	var stats *sqldb.ExecStats
	if e.par > 1 {
		stats = &sqldb.ExecStats{}
		opt.Stats = stats
	}
	var res *sqldb.Result
	var err error
	if e.opts.Obs.Profiling() {
		var prof *sqldb.OpProfile
		res, prof, err = prep.ExecuteProfiled(opt)
		if prof != nil {
			qc.profiles = append(qc.profiles, prof)
		}
	} else {
		res, err = prep.Execute(opt)
	}
	if stats != nil {
		e.publishParallel(qc.st, span, stats)
		qc.usage.AddParallelTasks(stats.Tasks.Load())
	}
	return res, err
}

// publishParallel folds one statement's parallel-execution counters into
// the query's phase stats, annotates the execute span, and bumps the
// engine-lifetime npdbench_exec_parallel_* counters.
func (e *Engine) publishParallel(st *PhaseStats, span *obs.Span, s *sqldb.ExecStats) {
	vals := [5]int64{
		s.Tasks.Load(), s.Workers.Load(), s.UnionArms.Load(),
		s.JoinPartitions.Load(), s.Morsels.Load(),
	}
	if st != nil {
		st.Parallel.Tasks += int(vals[0])
		st.Parallel.Workers += int(vals[1])
		st.Parallel.UnionArms += int(vals[2])
		st.Parallel.JoinPartitions += int(vals[3])
		st.Parallel.Morsels += int(vals[4])
	}
	if span != nil && vals[1] > 0 {
		span.SetInt("parallel_tasks", int(vals[0]))
		span.SetInt("parallel_workers", int(vals[1]))
	}
	if e.met != nil {
		for i, v := range vals {
			e.met.parallel[i].Add(v)
		}
	}
}

// translateRows is phase 4's result translation: each SQL row's (lexical,
// tag, datatype) column triples become the RDF terms of one solution row
// of the given width, the i-th triple landing in slots[i]. All rows share
// one backing array; a NULL lexical column leaves its slot unbound.
func translateRows(slots []int, width int, res *sqldb.Result) [][]rdf.Term {
	rows := make([][]rdf.Term, len(res.Rows))
	cells := make([]rdf.Term, len(res.Rows)*width)
	for r, row := range res.Rows {
		out := cells[r*width : (r+1)*width : (r+1)*width]
		for i, s := range slots {
			lex := row[3*i]
			if lex.IsNull() {
				continue
			}
			tag, _ := row[3*i+1].AsInt()
			out[s] = termFromValue(lex, int(tag), row[3*i+2].S)
		}
		rows[r] = out
	}
	return rows
}

func termFromValue(lex sqldb.Value, tag int, dt string) rdf.Term {
	switch tag {
	case unfold.TagIRI:
		return rdf.NewIRI(lex.String())
	case unfold.TagLiteral:
		return rdf.NewLiteral(lex.String())
	default:
		if dt == "" {
			dt = derivedDatatype(lex)
		}
		if dt == rdf.XSDString {
			return rdf.NewLiteral(lex.String())
		}
		return rdf.NewTypedLiteral(lex.String(), dt)
	}
}

func derivedDatatype(v sqldb.Value) string {
	switch v.Kind {
	case sqldb.KindInt:
		return rdf.XSDInteger
	case sqldb.KindFloat:
		return rdf.XSDDouble
	case sqldb.KindBool:
		return rdf.XSDBoolean
	case sqldb.KindDate:
		return rdf.XSDDate
	}
	return rdf.XSDString
}
