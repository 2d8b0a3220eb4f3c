// Package npdbench's benchmark harness regenerates every table and figure
// of the paper's evaluation (see DESIGN.md, experiment index):
//
//	go test -bench=Table3 .      # prior-benchmark ontology statistics
//	go test -bench=Table7 .      # the 21 NPD queries' statistics
//	go test -bench=Table8 .      # VIG vs random generator validation
//	go test -bench=Table9 .      # tractable queries, hash-join profile
//	go test -bench=Table10 .     # tractable queries, sort-merge profile
//	go test -bench=Figure1 .     # QMpH sweep over both profiles
//	go test -bench=Query .       # per-query phase measures
//	go test -bench=Ablation .    # design-choice ablations
//
// Scales are laptop-sized (the paper's NPD500/NPD1500 instances need a
// server); pass -benchtime=1x for a single full regeneration and read the
// emitted tables from the -v log.
package npdbench

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/mixer"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

const (
	benchSeedScale = 0.3
	benchSeed      = 42
)

func benchConfig() mixer.Config {
	cfg := mixer.DefaultConfig()
	cfg.SeedScale = benchSeedScale
	cfg.Seed = benchSeed
	cfg.Scales = []float64{1, 2, 5}
	cfg.Runs = 1
	cfg.Warmup = 0
	return cfg
}

// BenchmarkTable3_PriorBenchmarks regenerates Table 3.
func BenchmarkTable3_PriorBenchmarks(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = mixer.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkTable7_QueryStats regenerates Table 7.
func BenchmarkTable7_QueryStats(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = mixer.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkTable8_VIGvsRandom regenerates Table 8 (growth factors 1 and 4,
// i.e. the paper's npd2 and npd5 rows).
func BenchmarkTable8_VIGvsRandom(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = mixer.Table8(benchSeedScale, benchSeed, []float64{1, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkTable9_HashJoinProfile regenerates Table 9 (the MySQL-like
// backend).
func BenchmarkTable9_HashJoinProfile(b *testing.B) {
	cfg := benchConfig()
	cfg.Profile = sqldb.ProfileHashJoin
	var rep *mixer.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = mixer.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + mixer.TractableTable(rep, "Table 9: tractable queries (hash-join profile)"))
	reportQMPH(b, rep)
}

// BenchmarkTable10_SortMergeProfile regenerates Table 10 (the
// PostgreSQL-like backend).
func BenchmarkTable10_SortMergeProfile(b *testing.B) {
	cfg := benchConfig()
	cfg.Profile = sqldb.ProfileSortMerge
	var rep *mixer.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = mixer.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + mixer.TractableTable(rep, "Table 10: tractable queries (sort-merge profile)"))
	reportQMPH(b, rep)
}

func reportQMPH(b *testing.B, rep *mixer.Report) {
	for _, sm := range rep.Scales {
		b.ReportMetric(sm.QMPH, fmt.Sprintf("qmph/NPD%g", sm.Scale))
	}
}

// BenchmarkFigure1_QMPHSweep regenerates Figure 1 (QMpH for both profiles
// across scale factors).
func BenchmarkFigure1_QMPHSweep(b *testing.B) {
	cfg := benchConfig()
	cfg.CountTriples = false
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = mixer.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// ---- per-query benchmarks (Table 1 measures) ----

var benchEngineOnce sync.Once
var benchEngine *core.Engine
var benchEngineErr error

func sharedEngine(b *testing.B) *core.Engine {
	benchEngineOnce.Do(func() {
		db, _, err := mixer.BuildInstance(2, benchSeedScale, benchSeed)
		if err != nil {
			benchEngineErr = err
			return
		}
		benchEngine, benchEngineErr = core.NewEngine(core.Spec{
			Onto: npd.NewOntology(), Mapping: npd.NewMapping(),
			DB: db, Prefixes: npd.Prefixes(),
		}, core.DefaultOptions())
	})
	if benchEngineErr != nil {
		b.Fatal(benchEngineErr)
	}
	return benchEngine
}

// BenchmarkQuery measures each of the 21 queries end-to-end on an NPD2
// instance.
func BenchmarkQuery(b *testing.B) {
	eng := sharedEngine(b)
	for _, q := range npd.Queries() {
		parsed, err := eng.ParseQuery(q.SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				ans, err := eng.Answer(parsed)
				if err != nil {
					b.Fatal(err)
				}
				rows = ans.Len()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// ---- ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblation_TMappings contrasts the two hierarchy-reasoning
// strategies: T-mappings (saturation at load) versus classic UCQ expansion
// at query time. The paper attributes Ontop's performance to the former.
// It runs q6, whose classic expansion fits in 8192 CQs; q1, q5 and q7
// expand past that cap, and the engine refuses a truncated rewriting.
func BenchmarkAblation_TMappings(b *testing.B) {
	db, _, err := mixer.BuildInstance(1, benchSeedScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	query := npd.QueryByID("q6").SPARQL
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"tmappings", core.Options{TMappings: true, Existential: true}},
		{"ucq-expansion", core.Options{TMappings: false, Existential: true, MaxCQs: 8192}},
	} {
		eng, err := core.NewEngine(spec, mode.opts)
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := eng.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			var cqs int
			for i := 0; i < b.N; i++ {
				ans, err := eng.Answer(parsed)
				if err != nil {
					b.Fatal(err)
				}
				cqs = ans.Stats.CQCount
			}
			b.ReportMetric(float64(cqs), "CQs")
		})
	}
}

// TestAblationUCQExpansionAnswersQ6 runs q6 under the ucq-expansion
// ablation's configuration. Its hierarchy expansion once ran past MaxCQs
// and the truncated UCQ answered nothing; it must now fit the cap and
// return the rows DefaultOptions returns.
func TestAblationUCQExpansionAnswersQ6(t *testing.T) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	var rows [2][]string
	for i, opts := range []core.Options{
		core.DefaultOptions(),
		{TMappings: false, Existential: true, MaxCQs: 8192},
	} {
		eng, err := core.NewEngine(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Query(npd.QueryByID("q6").SPARQL)
		if err != nil {
			t.Fatalf("options %+v: %v", opts, err)
		}
		rows[i] = renderRows(ans)
	}
	if len(rows[0]) != 6 || strings.Join(rows[0], "\n") != strings.Join(rows[1], "\n") {
		t.Fatalf("q6: %d rows with DefaultOptions, %d under ucq-expansion (want 6 and equal)", len(rows[0]), len(rows[1]))
	}
}

// BenchmarkAblation_Existential measures the cost and effect of
// tree-witness reasoning on q6 (the paper's Sect. 6 toggle).
func BenchmarkAblation_Existential(b *testing.B) {
	db, _, err := mixer.BuildInstance(1, benchSeedScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	query := npd.QueryByID("q6").SPARQL
	for _, mode := range []struct {
		name string
		on   bool
	}{{"existential-on", true}, {"existential-off", false}} {
		eng, err := core.NewEngine(spec, core.Options{TMappings: true, Existential: mode.on})
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := eng.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				ans, err := eng.Answer(parsed)
				if err != nil {
					b.Fatal(err)
				}
				rows = ans.Len()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkAblation_Profiles contrasts the two database profiles on the
// join-heavy q1 (the Figure 1 effect at query granularity).
func BenchmarkAblation_Profiles(b *testing.B) {
	for _, prof := range []sqldb.Profile{sqldb.ProfileHashJoin, sqldb.ProfileSortMerge} {
		db, _, err := mixer.BuildInstance(2, benchSeedScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		db.Profile = prof
		eng, err := core.NewEngine(core.Spec{
			Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes(),
		}, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := eng.ParseQuery(npd.QueryByID("q1").SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prof.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Answer(parsed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Constraints contrasts unfolding with and without the
// static analyzer's schema constraints (key-based self-join merging and
// union-arm subsumption; see internal/analyze). The reported metrics show
// the plan simplification on the dataPropsSplit-heavy NPD mappings.
func BenchmarkAblation_Constraints(b *testing.B) {
	db, _, err := mixer.BuildInstance(1, benchSeedScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"constraints-on", true}, {"constraints-off", false}} {
		eng, err := core.NewEngine(spec, core.Options{
			TMappings: true, Existential: true, Constraints: mode.on,
		})
		if err != nil {
			b.Fatal(err)
		}
		// q1 (join-heavy), q6 (largest UCQ), q10 (per-attribute lookups):
		// the three shapes the merge optimization targets.
		for _, id := range []string{"q1", "q6", "q10"} {
			parsed, err := eng.ParseQuery(npd.QueryByID(id).SPARQL)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(id+"/"+mode.name, func(b *testing.B) {
				var st core.PhaseStats
				for i := 0; i < b.N; i++ {
					ans, err := eng.Answer(parsed)
					if err != nil {
						b.Fatal(err)
					}
					st = ans.Stats
				}
				b.ReportMetric(float64(st.UnionArms), "arms")
				b.ReportMetric(float64(st.SelfJoinsEliminated), "selfjoins-merged")
				b.ReportMetric(float64(st.SQL.Joins), "joins")
				b.ReportMetric(float64(st.SQL.InnerQueries), "innerqueries")
			})
		}
	}
}

// BenchmarkPlanCache measures the steady-state effect of the compiled-query
// cache over all 21 NPD queries: with the cache on, every iteration after
// the first serves memoized plans and pays execute/translate only; with it
// off, every iteration recompiles (rewrite + unfold + plan).
func BenchmarkPlanCache(b *testing.B) {
	// A small instance keeps execution cheap so the compile fraction —
	// the part the cache removes — is visible in ns/op; compileus/op
	// reports the saved work directly (near zero when cached).
	db, _, err := mixer.BuildInstance(1, 0.05, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	for _, mode := range []struct {
		name  string
		cache bool
	}{{"cache-on", true}, {"cache-off", false}} {
		opts := core.DefaultOptions()
		opts.PlanCache = mode.cache
		opts.VerifyPlans = core.VerifyOff
		eng, err := core.NewEngine(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		queries := npd.Queries()
		parsed := make([]*sparql.Query, len(queries))
		for i, q := range queries {
			parsed[i], err = eng.ParseQuery(q.SPARQL)
			if err != nil {
				b.Fatal(err)
			}
		}
		// Warm pass so cache-on measures the steady state, not the cold
		// compile; the same pass is run for cache-off to keep modes even.
		for _, p := range parsed {
			if _, err := eng.Answer(p); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(mode.name, func(b *testing.B) {
			var hits, misses int
			var compile time.Duration
			for i := 0; i < b.N; i++ {
				for _, p := range parsed {
					ans, err := eng.Answer(p)
					if err != nil {
						b.Fatal(err)
					}
					hits += ans.Stats.PlanCacheHits
					misses += ans.Stats.PlanCacheMisses
					compile += ans.Stats.RewriteTime + ans.Stats.UnfoldTime
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
			b.ReportMetric(float64(misses)/float64(b.N), "cachemisses/op")
			b.ReportMetric(float64(compile.Microseconds())/float64(b.N), "compileus/op")
		})
	}
}

// BenchmarkVerifyOverhead measures the cost of running the planck plan
// verifier on every intermediate representation (translate, rewrite,
// unfold) relative to an unverified pipeline, over all 21 NPD queries
// end-to-end.
func BenchmarkVerifyOverhead(b *testing.B) {
	db, _, err := mixer.BuildInstance(1, benchSeedScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	for _, mode := range []struct {
		name   string
		verify core.VerifyMode
	}{{"verify-on", core.VerifyOn}, {"verify-off", core.VerifyOff}} {
		opts := core.DefaultOptions()
		opts.VerifyPlans = mode.verify
		eng, err := core.NewEngine(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		queries := npd.Queries()
		parsed := make([]*sparql.Query, len(queries))
		for i, q := range queries {
			parsed[i], err = eng.ParseQuery(q.SPARQL)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range parsed {
					if _, err := eng.Answer(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on q6:
// "off" is the production default (Obs nil — one nil check per stage), "on"
// enables tracing plus the metrics registry. The acceptance bar is that the
// disabled path stays within 2% of an unobserved pipeline, so the observer
// can ship enabled-by-flag without a tax on benchmarks. Plan verification
// is forced off in both modes so it cannot mask the delta.
func BenchmarkObsOverhead(b *testing.B) {
	db, _, err := mixer.BuildInstance(1, benchSeedScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	for _, mode := range []struct {
		name string
		obs  *obs.Observer
	}{
		{"off", nil},
		{"on", &obs.Observer{Tracing: true, Metrics: obs.NewRegistry()}},
	} {
		opts := core.DefaultOptions()
		opts.VerifyPlans = core.VerifyOff
		opts.Obs = mode.obs
		eng, err := core.NewEngine(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := eng.ParseQuery(npd.QueryByID("q6").SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Answer(parsed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_AggregatePushdown contrasts SQL-side aggregation with
// in-memory aggregation over translated bindings on q19 (COUNT per
// company over every wellbore).
func BenchmarkAblation_AggregatePushdown(b *testing.B) {
	eng := sharedEngine(b)
	q := npd.QueryByID("q19")
	parsed, err := eng.ParseQuery(q.SPARQL)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Answer(parsed); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The in-memory path is what a HAVING query takes; q17 exercises it.
	q17, err := eng.ParseQuery(npd.QueryByID("q17").SPARQL)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("in-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Answer(q17); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- component throughput benchmarks ----

// BenchmarkVIG_Generation measures the generator's throughput (the paper's
// "Fast" requirement: 130 GB in 10 h ≈ 3.6 MB/s; we report rows/s).
func BenchmarkVIG_Generation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: benchSeedScale, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		analysis, err := vig.Analyze(db)
		if err != nil {
			b.Fatal(err)
		}
		gen := vig.New(analysis, benchSeed)
		b.StartTimer()
		rep, err := gen.Generate(db, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.TotalInserted()), "rows/op")
	}
}

// BenchmarkMaterialization measures virtual-graph exposure (the triple
// store's loading phase).
func BenchmarkMaterialization(b *testing.B) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: benchSeedScale, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	mp := npd.NewMapping()
	b.ResetTimer()
	var triples int
	for i := 0; i < b.N; i++ {
		triples = 0
		if err := mp.Materialize(db, func(rdf.Triple) { triples++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(triples), "triples")
}

// BenchmarkRewriting measures phase 2 alone on q6 (tree-witness detection
// and folding).
func BenchmarkRewriting(b *testing.B) {
	onto := npd.NewOntology()
	rw := &rewrite.Rewriter{Onto: onto, Existential: true}
	q, err := sparql.Parse(npd.QueryByID("q6").SPARQL, npd.Prefixes())
	if err != nil {
		b.Fatal(err)
	}
	filter := q.Pattern.(*sparql.Filter)
	bgp := filter.Inner.(*sparql.BGP)
	var answer []string
	for _, v := range sparql.PatternVars(bgp) {
		if len(v) < 3 || v[:3] != "_bn" {
			answer = append(answer, v)
		}
	}
	cq, err := rewrite.FromBGP(bgp, onto, answer)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rw.Rewrite(cq, answer); err != nil {
			b.Fatal(err)
		}
	}
}
