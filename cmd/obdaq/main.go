// Command obdaq answers SPARQL queries over an NPD benchmark instance
// through the OBDA engine, printing results and the per-phase measures of
// the paper's Table 1.
//
//	obdaq -q q6                          # run benchmark query q6
//	obdaq 'SELECT ?w WHERE { ?w a npdv:Wellbore } LIMIT 5'
//	obdaq -q q1 -scale 5 -sql            # also print the unfolded SQL
//	obdaq -q q6 -explain                 # pipeline span tree + EXPLAIN ANALYZE
//	obdaq -q q6 -trace                   # pipeline span tree only
//	obdaq -q q6 -metrics                 # Prometheus metric exposition (engine + runtime)
//	obdaq -q q6 -slowlog 8               # capture + print the slow-query log
package main

import (
	"flag"
	"fmt"
	"os"

	"npdbench/internal/core"
	"npdbench/internal/mixer"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
)

func main() {
	var (
		queryID     = flag.String("q", "", "benchmark query id (q1..q21)")
		scale       = flag.Float64("scale", 1, "NPDk scale factor")
		seedScale   = flag.Float64("seedscale", 1, "seed instance size multiplier")
		seed        = flag.Int64("seed", 42, "random seed")
		profile     = flag.String("profile", "hashjoin", "database profile: hashjoin | sortmerge")
		existential = flag.Bool("existential", true, "enable tree-witness reasoning")
		verify      = flag.Bool("verify", false, "verify every intermediate plan against the invariant catalog (planck)")
		parallel    = flag.Int("parallel", 0, "intra-query parallel workers (0 = NumCPU, 1 = sequential; results identical)")
		showSQL     = flag.Bool("sql", false, "print the unfolded SQL")
		explain     = flag.Bool("explain", false, "print the pipeline span tree and the EXPLAIN ANALYZE operator tree")
		trace       = flag.Bool("trace", false, "print the pipeline span tree (stage timings and attributes)")
		metrics     = flag.Bool("metrics", false, "print the Prometheus metric exposition (engine + runtime families) after the query")
		maxRows     = flag.Int("rows", 20, "result rows to print (0 = all)")
		useStore    = flag.Bool("storebaseline", false, "answer over the materialized triple store instead")
		slowlogCap  = flag.Int("slowlog", 0, "capture the N slowest executions and print the slow-query log as JSON")
	)
	flag.Parse()

	src := ""
	switch {
	case *queryID != "":
		q := npd.QueryByID(*queryID)
		if q == nil {
			fatal(fmt.Errorf("unknown query %q", *queryID))
		}
		fmt.Printf("# %s: %s\n", q.ID, q.Description)
		src = q.SPARQL
	case flag.NArg() == 1:
		src = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: obdaq [-q qN | 'SPARQL...'] [flags]")
		os.Exit(2)
	}

	db, genTime, err := mixer.BuildInstance(*scale, *seedScale, *seed)
	if err != nil {
		fatal(err)
	}
	switch *profile {
	case "hashjoin":
		db.Profile = sqldb.ProfileHashJoin
	case "sortmerge":
		db.Profile = sqldb.ProfileSortMerge
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}
	fmt.Printf("instance NPD%g: %d rows (built in %v)\n", *scale, db.TotalRows(), genTime.Round(1e6))

	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	var ans *core.Answer
	var observer *obs.Observer
	var cacheStats core.PlanCacheStats
	var cacheOn bool // false for the triple store, which has no plan cache
	if *useStore {
		store, err := core.NewStoreEngine(spec, core.StoreOptions{Reasoning: *existential})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("materialized %d triples in %v\n", store.LoadStats().Triples, store.LoadStats().LoadTime.Round(1e6))
		ans, err = store.Query(src)
		if err != nil {
			fatal(err)
		}
	} else {
		mode := core.VerifyOff
		if *verify {
			mode = core.VerifyOn
		}
		if *explain || *trace || *metrics || *slowlogCap > 0 {
			observer = &obs.Observer{Tracing: *explain || *trace, ExecProfile: *explain}
			if *metrics {
				observer.Metrics = obs.NewRegistry()
			}
			if *slowlogCap > 0 {
				observer.SlowLog = obs.NewSlowLog(*slowlogCap)
			}
		}
		opts := core.DefaultOptions()
		opts.Existential = *existential
		opts.VerifyPlans = mode
		opts.Parallelism = *parallel
		opts.Obs = observer
		eng, err := core.NewEngine(spec, opts)
		if err != nil {
			fatal(err)
		}
		ls := eng.LoadStats()
		fmt.Printf("starting phase: %v (%d mapping assertions, %d after T-mapping saturation)\n",
			ls.LoadTime.Round(1e6), ls.MappingAssertions, ls.SaturatedAssertions)
		ans, err = eng.Query(src)
		if err != nil {
			fatal(err)
		}
		cacheStats, cacheOn = eng.PlanCacheStats()
	}

	st := ans.Stats
	fmt.Printf("\nphases: rewrite=%v unfold=%v exec=%v translate=%v total=%v\n",
		st.RewriteTime.Round(1e3), st.UnfoldTime.Round(1e3),
		st.ExecTime.Round(1e3), st.TranslateTime.Round(1e3), st.TotalTime.Round(1e3))
	fmt.Printf("rewriting: %d tree witnesses, %d CQs, %d entailed atoms dropped; unfolding: %d arms (%d pruned, %d self-joins eliminated, %d subsumed)\n",
		st.TreeWitnesses, st.CQCount, st.EntailedAtoms, st.UnionArms, st.PrunedArms, st.SelfJoinsEliminated, st.SubsumedArms)
	if st.StaticPrunedArms > 0 {
		fmt.Printf("static pruning: %d candidates\n", st.StaticPrunedArms)
	}
	fmt.Printf("weight of R+U: %.3f\n", st.WeightRU())
	if cacheOn {
		fmt.Printf("plan cache: %d hits, %d misses this query (%d/%d entries, %d evictions)\n",
			st.PlanCacheHits, st.PlanCacheMisses, cacheStats.Entries, cacheStats.Capacity, cacheStats.Evictions)
	}
	if *showSQL && st.UnfoldedSQL != "" {
		fmt.Printf("\nunfolded SQL:\n%s\n", st.UnfoldedSQL)
	}
	if ans.Trace != nil {
		fmt.Printf("\npipeline trace: id=%s\n%s", ans.Trace.ID, ans.Trace.Render())
	}
	if *explain && st.Usage != nil {
		fmt.Printf("\nusage: %s\n", st.Usage.String())
	}
	if *explain {
		for i, prof := range ans.Profiles {
			fmt.Printf("\nEXPLAIN ANALYZE (statement %d of %d):\n%s", i+1, len(ans.Profiles), prof.Render())
		}
		if len(ans.Profiles) == 0 {
			fmt.Println("\nEXPLAIN ANALYZE: no SQL executed (query statically answered)")
		}
	}
	if *metrics && observer != nil && observer.Metrics != nil {
		// One runtime-metrics pass so the exposition carries the
		// npdbench_runtime_* family alongside the engine counters.
		obs.NewRuntimeCollector(observer.Metrics).Collect()
		fmt.Printf("\nmetrics:\n%s", observer.Metrics.PrometheusText())
	}
	if observer != nil && observer.SlowLog != nil {
		doc, err := observer.SlowLog.RenderJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nslow-query log (%d captured):\n%s\n", observer.SlowLog.Len(), doc)
	}

	fmt.Printf("\n%d solutions\n", ans.Len())
	rows := ans.Rows
	if *maxRows > 0 && len(rows) > *maxRows {
		rows = rows[:*maxRows]
	}
	for _, row := range rows {
		for i, t := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			if t.IsZero() {
				fmt.Print("_")
			} else {
				fmt.Print(t)
			}
		}
		fmt.Println()
	}
	if *maxRows > 0 && ans.Len() > *maxRows {
		fmt.Printf("... (%d more)\n", ans.Len()-*maxRows)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obdaq:", err)
	os.Exit(1)
}
