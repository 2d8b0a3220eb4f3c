// Package mixer is the reproduction of the benchmark's automated testing
// platform ("OBDA Mixer"): it builds scaled NPD instances with VIG, runs
// query mixes against the OBDA engine under a chosen database profile,
// collects the per-phase measures of the paper's Table 1, and renders the
// evaluation tables and figures (Tables 3, 7, 8, 9, 10 and Figure 1).
package mixer

import (
	"fmt"
	"math"
	"sync"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

// Config drives a mixer run.
type Config struct {
	// Scales lists the instance sizes as the paper's NPDk factors
	// (NPD1 = seed, NPD5 = seed pumped by growth 4, ...).
	Scales []float64
	// SeedScale sizes the seed instance (1.0 = default snapshot).
	SeedScale float64
	// Seed fixes all randomness.
	Seed int64
	// QueryIDs selects the workload (nil = all 21).
	QueryIDs []string
	// Warmup runs per query before measuring.
	Warmup int
	// Runs measured per query.
	Runs int
	// Profile selects the database backend behaviour.
	Profile sqldb.Profile
	// Existential toggles tree-witness reasoning.
	Existential bool
	// SkipAggregates drops q15–q21 (the paper measures them separately
	// with a dedicated engine version).
	SkipAggregates bool
	// CountTriples materializes the virtual graph size per scale (costly
	// on large instances; reported as 0 when off).
	CountTriples bool
	// Clients runs that many concurrent query streams per measurement (the
	// paper presents single-client results "due to space constraints";
	// this knob restores the multi-client dimension). 0 or 1 = one client.
	Clients int
	// Parallelism is the engine's intra-query worker cap (0 = NumCPU,
	// 1 = sequential). Results are identical at every setting.
	Parallelism int
	// RunLog, when non-nil, receives one JSONL record per measured query
	// execution (trace id, stage timings, row counts). Enabling it turns on
	// engine tracing so each record carries a real trace id.
	RunLog *obs.RunLog
	// Metrics, when non-nil, receives the engine's process-wide counters
	// and histograms (served by cmd/mixer -http).
	Metrics *obs.Registry
	// Sampler, when non-nil, makes the per-query trace retention decision
	// instead of all-or-nothing tracing (probabilistic head sampling plus
	// promote-on-slow).
	Sampler *obs.Sampler
	// SlowLog, when non-nil, captures the slowest queries with span tree
	// and usage block (served by cmd/mixer -http at /debug/slowlog).
	SlowLog *obs.SlowLog
	// Budget sets per-query soft resource limits; exceeding one marks the
	// run's usage block and bumps npdbench_budget_exceeded_total.
	Budget obs.QueryBudget
}

// DefaultConfig returns a laptop-friendly configuration.
func DefaultConfig() Config {
	return Config{
		Scales:       []float64{1, 2, 5},
		SeedScale:    1,
		Seed:         42,
		Warmup:       1,
		Runs:         3,
		Profile:      sqldb.ProfileHashJoin,
		Existential:  true,
		CountTriples: true,
	}
}

// engineOptions is the engine the mixer measures: the shipped
// core.DefaultOptions, with only the paper's existential toggle, the
// worker cap and the observer taken from cfg.
func engineOptions(cfg Config, observer *obs.Observer) core.Options {
	opts := core.DefaultOptions()
	opts.Existential = cfg.Existential
	opts.Parallelism = cfg.Parallelism
	opts.Obs = observer
	return opts
}

// QueryMeasure aggregates one query's runs (Table 1 measures). Besides the
// means it keeps the total-latency distribution: stddev plus the p50/p95/p99
// percentiles interpolated from the recorded per-run samples.
type QueryMeasure struct {
	QueryID string
	// Runs counts the executions that actually completed successfully —
	// when a client errors out, its remaining slots never run and are not
	// aggregated.
	Runs int
	// Errors counts the runs that failed; their partial timings are
	// excluded from every average.
	Errors        int
	AvgRewrite    time.Duration
	AvgUnfold     time.Duration
	AvgExec       time.Duration
	AvgTranslate  time.Duration // the paper's "out_time" (result translation)
	AvgTotal      time.Duration
	StddevTotal   time.Duration
	P50Total      time.Duration
	P95Total      time.Duration
	P99Total      time.Duration
	AvgRows       float64
	TreeWitnesses int
	CQs           int
	UnionArms     int
	WeightRU      float64
}

// ScaleMeasure aggregates a full mix on one instance size.
type ScaleMeasure struct {
	Scale    float64 // NPDk
	DBRows   int
	Triples  int
	LoadTime time.Duration
	GenTime  time.Duration
	Queries  []QueryMeasure
	// QMPH is query mixes per hour: 3600 / (seconds per full mix).
	QMPH float64
}

// Report is the output of a mixer run.
type Report struct {
	Config Config
	Scales []ScaleMeasure
}

// BuildInstance creates the NPDk instance: the synthetic seed pumped by
// VIG with growth factor k−1.
func BuildInstance(k, seedScale float64, seed int64) (*sqldb.Database, time.Duration, error) {
	start := obs.Now()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: seedScale, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	if k > 1 {
		analysis, err := vig.Analyze(db)
		if err != nil {
			return nil, 0, err
		}
		if _, err := vig.New(analysis, seed).Generate(db, k-1); err != nil {
			return nil, 0, err
		}
	}
	return db, obs.Since(start), nil
}

// Run executes the configured mix across all scales.
func Run(cfg Config) (*Report, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.SeedScale <= 0 {
		cfg.SeedScale = 1
	}
	queries := selectQueries(cfg)
	rep := &Report{Config: cfg}
	onto := npd.NewOntology()
	mapping := npd.NewMapping()
	for _, k := range cfg.Scales {
		db, genTime, err := BuildInstance(k, cfg.SeedScale, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("mixer: building NPD%g: %w", k, err)
		}
		db.Profile = cfg.Profile
		spec := core.Spec{Onto: onto, Mapping: mapping, DB: db, Prefixes: npd.Prefixes()}
		var observer *obs.Observer
		if cfg.RunLog != nil || cfg.Metrics != nil || cfg.Sampler != nil || cfg.SlowLog != nil {
			observer = &obs.Observer{
				// Plain tracing forces full retention; with a sampler
				// installed the retention decision is delegated to it.
				Tracing: cfg.RunLog != nil && cfg.Sampler == nil,
				Metrics: cfg.Metrics,
				Sampler: cfg.Sampler,
				SlowLog: cfg.SlowLog,
				Budget:  cfg.Budget,
			}
		}
		eng, err := core.NewEngine(spec, engineOptions(cfg, observer))
		if err != nil {
			return nil, err
		}
		sm := ScaleMeasure{
			Scale:    k,
			DBRows:   db.TotalRows(),
			LoadTime: eng.LoadStats().LoadTime,
			GenTime:  genTime,
		}
		if cfg.CountTriples {
			counts, err := mapping.VirtualCounts(db)
			if err != nil {
				return nil, err
			}
			for _, n := range counts {
				sm.Triples += n
			}
		}
		var mixTime time.Duration
		for _, q := range queries {
			qm, err := measureQuery(eng, q, cfg, k)
			if err != nil {
				return nil, fmt.Errorf("mixer: NPD%g %s: %w", k, q.ID, err)
			}
			sm.Queries = append(sm.Queries, qm)
			mixTime += qm.AvgTotal
		}
		if mixTime > 0 {
			sm.QMPH = float64(time.Hour) / float64(mixTime)
		}
		rep.Scales = append(rep.Scales, sm)
	}
	return rep, nil
}

func selectQueries(cfg Config) []npd.BenchQuery {
	var out []npd.BenchQuery
	for _, q := range npd.Queries() {
		if cfg.SkipAggregates && q.Aggregate {
			continue
		}
		if len(cfg.QueryIDs) > 0 && !contains(cfg.QueryIDs, q.ID) {
			continue
		}
		out = append(out, q)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runResult is one measured execution slot. done distinguishes a slot that
// ran (successfully or not) from one a failing client never reached — only
// completed runs enter the averages, so a zero-valued never-ran slot can't
// drag the means down.
type runResult struct {
	stats core.PhaseStats
	rows  int
	err   error
	done  bool
}

func measureQuery(eng *core.Engine, q npd.BenchQuery, cfg Config, scale float64) (QueryMeasure, error) {
	parsed, err := eng.ParseQuery(q.SPARQL)
	if err != nil {
		return QueryMeasure{}, err
	}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := eng.Answer(parsed); err != nil {
			return QueryMeasure{}, err
		}
	}
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	results := make([]runResult, cfg.Runs*clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// Per-client deep copy: the engine's pipeline stages are
			// audited mutation-free, but sharing one AST across goroutines
			// is exactly the kind of latent race a future in-place
			// transform would turn real. Each client evaluates its own
			// tree.
			query := parsed.Clone()
			for i := 0; i < cfg.Runs; i++ {
				ans, err := eng.AnswerNamed(query, q.ID)
				slot := &results[client*cfg.Runs+i]
				slot.done = true
				if err != nil {
					slot.err = err
					logRun(cfg, q.ID, scale, client, i, nil, err)
					return
				}
				slot.stats = ans.Stats
				slot.rows = ans.Len()
				logRun(cfg, q.ID, scale, client, i, ans, nil)
			}
		}(c)
	}
	wg.Wait()
	return aggregateRuns(q.ID, results)
}

// aggregateRuns folds the per-slot results into the query measure. Slots
// that never ran are skipped; failed slots count as Errors. The whole
// measurement errors out only when not a single run completed.
func aggregateRuns(queryID string, results []runResult) (QueryMeasure, error) {
	qm := QueryMeasure{QueryID: queryID}
	var totRewrite, totUnfold, totExec, totTranslate, totTotal time.Duration
	var rows int
	var weight float64
	var firstErr error
	samples := make([]float64, 0, len(results))
	for _, r := range results {
		if !r.done {
			continue
		}
		if r.err != nil {
			qm.Errors++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		qm.Runs++
		totRewrite += r.stats.RewriteTime
		totUnfold += r.stats.UnfoldTime
		totExec += r.stats.ExecTime
		totTranslate += r.stats.TranslateTime
		totTotal += r.stats.TotalTime
		samples = append(samples, float64(r.stats.TotalTime))
		rows += r.rows
		weight += r.stats.WeightRU()
		qm.TreeWitnesses = r.stats.TreeWitnesses
		qm.CQs = r.stats.CQCount
		qm.UnionArms = r.stats.UnionArms
	}
	if qm.Runs == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("no runs completed")
		}
		return QueryMeasure{}, firstErr
	}
	n := time.Duration(qm.Runs)
	qm.AvgRewrite = totRewrite / n
	qm.AvgUnfold = totUnfold / n
	qm.AvgExec = totExec / n
	qm.AvgTranslate = totTranslate / n
	qm.AvgTotal = totTotal / n
	qm.AvgRows = float64(rows) / float64(qm.Runs)
	qm.WeightRU = weight / float64(qm.Runs)
	mean := float64(qm.AvgTotal)
	var varSum float64
	for _, s := range samples {
		varSum += (s - mean) * (s - mean)
	}
	qm.StddevTotal = time.Duration(math.Sqrt(varSum / float64(len(samples))))
	qm.P50Total = time.Duration(obs.Percentile(samples, 50))
	qm.P95Total = time.Duration(obs.Percentile(samples, 95))
	qm.P99Total = time.Duration(obs.Percentile(samples, 99))
	return qm, nil
}

// logRun appends one execution to the configured JSONL run log.
func logRun(cfg Config, queryID string, scale float64, client, run int, ans *core.Answer, runErr error) {
	if cfg.RunLog == nil {
		return
	}
	rec := obs.RunRecord{
		Schema:  obs.RunLogSchemaVersion,
		TraceID: "untraced",
		Query:   queryID,
		Scale:   scale,
		Profile: cfg.Profile.String(),
		Client:  client,
		Run:     run,
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	if ans != nil {
		if ans.Trace != nil {
			rec.TraceID = ans.Trace.ID
		}
		rec.RewriteUS = ans.Stats.RewriteTime.Microseconds()
		rec.UnfoldUS = ans.Stats.UnfoldTime.Microseconds()
		rec.ExecUS = ans.Stats.ExecTime.Microseconds()
		rec.TranslateUS = ans.Stats.TranslateTime.Microseconds()
		rec.TotalUS = ans.Stats.TotalTime.Microseconds()
		rec.AbandonedUS = ans.Stats.PushdownAbandoned.Microseconds()
		rec.Rows = ans.Len()
		rec.CQs = ans.Stats.CQCount
		rec.UnionArms = ans.Stats.UnionArms
		rec.CacheHits = ans.Stats.PlanCacheHits
		rec.CacheMisses = ans.Stats.PlanCacheMisses
		rec.Usage = ans.Stats.Usage
	}
	// Write failures must not abort a measurement run; the validator in
	// ci.sh catches a truncated log.
	_ = cfg.RunLog.Write(rec)
}
