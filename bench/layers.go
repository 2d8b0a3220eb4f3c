package main

import (
	"context"
	"fmt"
	"runtime"

	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
)

// stageMetrics maps the engine's stage span names to the per-mix metric
// that carries their time. The engine has no standalone entry point for
// these stages with identical inputs, so the harness adopts its spans.
var stageMetrics = map[string]string{
	"rewrite":      "rewrite.ms_per_mix",
	"static-prune": "planck.prune_ms_per_mix",
	"unfold":       "unfold.ms_per_mix",
	"plan":         "core.plan_ms_per_mix",
	"execute":      "sqldb.exec_ms_per_mix",
	"assemble":     "core.assemble_ms_per_mix",
}

// tracer drives the traced pass: it sends each query through the layers'
// public entry points one after the other, records a span around each call,
// and accumulates the per-mix layer sums.
type tracer struct {
	inst     *instance
	check    *checker
	rec      *recorder
	prefixes rdf.PrefixMap
	// reqMix maps a traced request id to its mix, so span self times can be
	// summed per mix after the run.
	reqMix    map[int64]int
	nextReq   int64
	attempted int
	failed    int
}

// traceMix runs one traced mix in the given query order and returns its
// per-layer sums.
func (t *tracer) traceMix(ctx context.Context, mix int, order []int) (mixAcc, error) {
	acc := mixAcc{}
	roll := newRollup()
	for _, qi := range order {
		if err := t.traceQuery(ctx, mix, qi, acc, roll); err != nil {
			return nil, err
		}
	}
	roll.into(acc, t.inst.stats.rows, len(order))
	acc["core.plancache_hit_ratio"] = ratio(acc["plancache_hits"], acc["plancache_hits"]+acc["plancache_misses"])
	return acc, nil
}

// traceQuery measures one query at every layer boundary reachable from
// outside: the endpoint (server), the parser (sparql), the engine (core,
// with its own stage spans adopted as children) and the SQL executor on the
// unfolded statement (sqldb.direct).
func (t *tracer) traceQuery(ctx context.Context, mix, qi int, acc mixAcc, roll *rollup) error {
	inst, q := t.inst, t.inst.queries[qi]
	t.nextReq++
	reqID := t.nextReq
	t.reqMix[reqID] = mix

	resp := inst.serveInProcess(ctx, qi)
	t.rec.add(0, reqID, "server", q.ID, resp.start, resp.start.Add(resp.latency))
	t.attempted++
	if !t.check.ok(qi, resp) {
		t.failed++
	}
	acc["server_ms"] += ms(resp.latency)
	acc["server.kb_out_per_mix"] += float64(len(resp.body)) / 1024

	if inst.w.cold {
		inst.eng.InvalidatePlans()
	}
	start := obs.Now()
	parsed, err := sparql.Parse(q.SPARQL, t.prefixes)
	parseDur := obs.Since(start)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", q.ID, err)
	}
	t.rec.add(0, reqID, "sparql", q.ID, start, start.Add(parseDur))
	acc["sparql.parse_ms_per_mix"] += ms(parseDur)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = obs.Now()
	ans, err := inst.eng.AnswerCtx(ctx, parsed)
	answerDur := obs.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("answering %s: %w", q.ID, err)
	}
	coreID := t.rec.add(0, reqID, "core", q.ID, start, start.Add(answerDur))
	if ans.Trace != nil {
		for _, c := range ans.Trace.Root.Children {
			t.rec.adopt(coreID, reqID, q.ID, c)
		}
		for stage, d := range ans.Trace.StageDurations() {
			if name, ok := stageMetrics[stage]; ok {
				acc[name] += ms(d)
			}
		}
	}
	acc["core.answer_ms_per_mix"] += ms(answerDur)
	acc["server.handler_self_ms_per_mix"] += ms(resp.latency - parseDur - answerDur)
	acc["core.allocs_per_mix"] += float64(after.Mallocs - before.Mallocs)
	acc["core.alloc_mb_per_mix"] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6

	st := ans.Stats
	acc["rewrite.cqs_per_mix"] += float64(st.CQCount)
	acc["rewrite.tree_witnesses_per_mix"] += float64(st.TreeWitnesses)
	acc["planck.cqs_pruned_per_mix"] += float64(st.StaticPrunedCQs)
	acc["unfold.arms_per_mix"] += float64(st.UnionArms)
	acc["unfold.arms_pruned_per_mix"] += float64(st.PrunedArms + st.StaticPrunedArms)
	acc["unfold.sql_kb_per_mix"] += float64(len(st.UnfoldedSQL)) / 1024
	acc["unfold.joins_per_mix"] += float64(st.SQL.Joins)
	acc["plancache_hits"] += float64(st.PlanCacheHits)
	acc["plancache_misses"] += float64(st.PlanCacheMisses)
	acc["sqldb.batches_per_mix"] += float64(st.Parallel.Batches)
	acc["sqldb.parallel_tasks_per_mix"] += float64(st.Parallel.Tasks)
	if st.Usage != nil {
		acc["sqldb.mb_materialized_per_mix"] += float64(st.Usage.BytesMaterialized) / 1e6
	}
	for _, p := range ans.Profiles {
		roll.add(p)
	}

	if st.UnfoldedSQL == "" {
		return nil // every arm was pruned: nothing reaches the executor
	}
	stmt, err := sqldb.Parse(st.UnfoldedSQL)
	if err != nil {
		return fmt.Errorf("re-parsing the unfolded SQL of %s: %w", q.ID, err)
	}
	opts := inst.eng.Options()
	start = obs.Now()
	_, err = inst.db.ExecSelectOpts(stmt, sqldb.ExecOptions{
		Parallelism: runtime.NumCPU(), Pool: inst.eng.Pool(), Ctx: ctx, BatchSize: opts.BatchSize,
	})
	directDur := obs.Since(start)
	if err != nil {
		return fmt.Errorf("executing the unfolded SQL of %s: %w", q.ID, err)
	}
	t.rec.add(0, reqID, "sqldb.direct", q.ID, start, start.Add(directDur))
	acc["sqldb.exec_direct_ms_per_mix"] += ms(directDur)
	return nil
}

// into writes the rollup's per-mix metrics.
func (r *rollup) into(acc mixAcc, instanceRows, queries int) {
	for _, k := range opKinds {
		c := r.byKind[k.metric]
		acc["sqldb."+k.metric+".ops_per_mix"] = float64(c.ops)
		acc["sqldb."+k.metric+".rows_out_per_mix"] = float64(c.rowsOut)
	}
	acc["sqldb.nested_loop.pairs_per_mix"] = float64(r.nestedPairs)
	acc["sqldb.nested_loop.zero_key_ops_per_mix"] = float64(r.zeroKeyNested)
	acc["sqldb.hash_join.build_rows_per_mix"] = float64(r.hashBuildRows)
	acc["sqldb.hash_join.probes_per_mix"] = float64(r.hashProbes)
	acc["sqldb.scan_amplification"] = ratio(float64(r.rowsScanned), float64(instanceRows)*float64(queries))
	acc["sqldb.empty_arm_ratio"] = ratio(float64(r.emptyArms), float64(r.arms))
	acc["sqldb.empty_arm_time_share"] = ratio(float64(r.emptyArmUS), float64(r.armUS))
}

// layerDef names one per-layer metric. perMix metrics are reduced as the
// median over traced mixes of the per-mix sum. No per-layer metric has a
// bound; better only says which way an optimisation should move it.
type layerDef struct {
	name, unit, better string
	perMix             bool
}

// layerCatalog lists every per-layer metric in report order; BENCHMARK.json
// mirrors it. Every workload reports every one, 0 where a layer is not on
// the workload's path.
func layerCatalog() []layerDef {
	var defs []layerDef
	once := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, layerDef{name: n, unit: unit, better: "lower"})
		}
	}
	perMix := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, layerDef{name: n, unit: unit, better: "lower", perMix: true})
		}
	}
	once("s", "npd.seed_s")
	once("count", "npd.rows")
	once("s", "vig.analyze_s", "vig.generate_s")
	once("count", "vig.rows_inserted")
	once("s", "core.load_s")
	once("count", "core.saturated_assertions")
	once("s", "sqldb.segment_build_s")
	perMix("ms", "sparql.parse_ms_per_mix", "rewrite.ms_per_mix")
	perMix("count", "rewrite.cqs_per_mix", "rewrite.tree_witnesses_per_mix")
	perMix("ms", "planck.prune_ms_per_mix")
	perMix("count", "planck.cqs_pruned_per_mix")
	perMix("ms", "unfold.ms_per_mix")
	perMix("count", "unfold.arms_per_mix", "unfold.arms_pruned_per_mix")
	perMix("KB", "unfold.sql_kb_per_mix")
	perMix("count", "unfold.joins_per_mix")
	perMix("ms", "core.plan_ms_per_mix")
	defs = append(defs, layerDef{name: "core.plancache_hit_ratio", unit: "ratio", better: "higher", perMix: true})
	perMix("ms", "sqldb.exec_ms_per_mix", "sqldb.exec_direct_ms_per_mix")
	for _, k := range opKinds {
		perMix("count", "sqldb."+k.metric+".ops_per_mix", "sqldb."+k.metric+".rows_out_per_mix")
	}
	perMix("count", "sqldb.nested_loop.pairs_per_mix", "sqldb.nested_loop.zero_key_ops_per_mix",
		"sqldb.hash_join.build_rows_per_mix", "sqldb.hash_join.probes_per_mix",
		"sqldb.batches_per_mix", "sqldb.parallel_tasks_per_mix")
	perMix("MB", "sqldb.mb_materialized_per_mix")
	perMix("ratio", "sqldb.scan_amplification", "sqldb.empty_arm_ratio", "sqldb.empty_arm_time_share")
	perMix("ms", "core.answer_ms_per_mix", "core.self_ms_per_mix", "core.assemble_ms_per_mix")
	perMix("count", "core.allocs_per_mix")
	perMix("MB", "core.alloc_mb_per_mix")
	for _, q := range npd.Queries() {
		once("ms", "core.query_ms_p50."+q.ID)
	}
	perMix("ms", "server.handler_self_ms_per_mix")
	perMix("KB", "server.kb_out_per_mix")
	once("ms", "server.open_ms_p50", "server.open_ms_p95", "server.net_self_ms_p50",
		"server.queue_wait_ms_p95", "server.gen_lateness_ms_p95")
	once("count", "server.backlog_at_end", "server.status_429", "server.status_503")
	once("ratio", "obs.trace_overhead_ratio")
	return defs
}
