// Command mixer is the automated testing platform of the NPD benchmark
// (the paper's "OBDA Mixer"): it regenerates the evaluation tables and
// figures.
//
// Usage:
//
//	mixer -table 3                 # prior-benchmark ontology statistics
//	mixer -table 7                 # the 21 NPD queries' statistics
//	mixer -table 8                 # VIG vs random generator validation
//	mixer -table 9                 # tractable queries, hash-join profile
//	mixer -table 10                # tractable queries, sort-merge profile
//	mixer -figure 1                # QMpH sweep over both profiles
//	mixer -store                   # OBDA engine vs triple-store baseline
//	mixer -breakdown -scales 1,5   # per-query phase measures
//
// Common flags: -scales, -seedscale, -runs, -warmup, -seed, -existential,
// -clients, -parallel. Every mode measures the engine that ships
// (core.DefaultOptions).
//
// Observability:
//
//	mixer -breakdown -jsonl run.jsonl   # one JSONL record per execution
//	mixer -validatejsonl run.jsonl      # check a run log (the ci.sh gate)
//	mixer -breakdown -http :6060        # serve /metrics, /debug/slowlog + pprof
//	mixer -breakdown -metrics           # print the metric exposition after the run
//	mixer -breakdown -slowlog 16        # capture the 16 slowest executions
//	mixer -breakdown -sample 0.1        # retain ~10% of traces (plus all slow ones)
//
// Benchmark (the numbers themselves come from `go run ./bench`, see
// bench/README.md; run the differ from the repository root, it reads
// ./BENCHMARK.json for each metric's direction and bound):
//
//	mixer -benchdiff old/results.json new/results.json
//
// prints ok / improved / regressed per workload and end-to-end metric,
// lists the per-layer metrics that moved, and exits 1 on a regression,
// a failed answer check or a lower ok_ratio.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"npdbench/internal/mixer"
	"npdbench/internal/obs"
	"npdbench/internal/server"
	"npdbench/internal/sqldb"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate a paper table (3, 7, 8, 9, 10)")
		figure      = flag.Int("figure", 0, "regenerate a paper figure (1)")
		store       = flag.Bool("store", false, "compare the OBDA engine with the triple-store baseline")
		breakdown   = flag.Bool("breakdown", false, "print per-query phase measures")
		scales      = flag.String("scales", "1,2,5", "comma-separated NPDk scale factors")
		seedScale   = flag.Float64("seedscale", 1, "seed instance size multiplier")
		seed        = flag.Int64("seed", 42, "random seed")
		runs        = flag.Int("runs", 3, "measured runs per query")
		warmup      = flag.Int("warmup", 1, "warmup runs per query")
		existential = flag.Bool("existential", true, "enable tree-witness (existential) reasoning")
		queries     = flag.String("queries", "", "comma-separated query ids (default: all 21)")
		triples     = flag.Bool("triples", true, "count virtual triples per scale")
		clients     = flag.Int("clients", 1, "concurrent query streams")
		parallel    = flag.Int("parallel", 0, "intra-query parallel workers per engine (0 = NumCPU, 1 = sequential)")
		jsonl       = flag.String("jsonl", "", "write a JSONL run log (one record per query execution)")
		validate    = flag.String("validatejsonl", "", "validate a JSONL run log and exit")
		httpAddr    = flag.String("http", "", "serve /metrics, /debug/slowlog and net/http/pprof on this address while running")
		metrics     = flag.Bool("metrics", false, "print the Prometheus metric exposition after the run")
		slowlogCap  = flag.Int("slowlog", 0, "capture the N slowest query executions (span tree + usage block)")
		slowThresh  = flag.Duration("slowthreshold", 0, "always retain traces of queries at least this slow (e.g. 50ms)")
		sampleRate  = flag.Float64("sample", 0, "probabilistic trace retention rate in [0,1] (0 = trace everything when -jsonl is on)")
		budgetRows  = flag.Int64("budgetrows", 0, "per-query soft limit on rows scanned (0 = unlimited)")
		budgetBytes = flag.Int64("budgetbytes", 0, "per-query soft limit on bytes materialized (0 = unlimited)")
		benchdiff   = flag.Bool("benchdiff", false, "diff two bench/out/results.json files under ./BENCHMARK.json's bounds: mixer -benchdiff old new")
	)
	flag.Parse()

	if *benchdiff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-benchdiff needs exactly two file arguments, got %d", flag.NArg()))
		}
		rep, err := mixer.BenchDiffFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fatal(err)
		}
		n, err := obs.ValidateRunLog(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *validate, err))
		}
		fmt.Printf("%s: %d records OK\n", *validate, n)
		return
	}

	cfg := mixer.DefaultConfig()
	cfg.SeedScale = *seedScale
	cfg.Seed = *seed
	cfg.Runs = *runs
	cfg.Warmup = *warmup
	cfg.Existential = *existential
	cfg.CountTriples = *triples
	cfg.Clients = *clients
	cfg.Parallelism = *parallel
	if s, err := parseScales(*scales); err == nil {
		cfg.Scales = s
	} else {
		fatal(err)
	}
	if *queries != "" {
		cfg.QueryIDs = strings.Split(*queries, ",")
	}
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fatal(err)
		}
		cfg.RunLog = obs.NewRunLog(f)
		defer func() {
			if err := cfg.RunLog.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("run log: %d records written to %s\n", cfg.RunLog.Count(), *jsonl)
		}()
	}
	if *sampleRate > 0 || *slowThresh > 0 {
		cfg.Sampler = &obs.Sampler{Rate: *sampleRate, SlowThreshold: *slowThresh, Seed: uint64(*seed)}
	}
	if *slowlogCap > 0 {
		cfg.SlowLog = obs.NewSlowLog(*slowlogCap)
		defer func() {
			fmt.Printf("slow log: %d of %d offered executions captured\n",
				cfg.SlowLog.Len(), cfg.SlowLog.Offered())
		}()
	}
	cfg.Budget = obs.QueryBudget{MaxRowsScanned: *budgetRows, MaxBytesMaterialized: *budgetBytes}
	var collector *obs.RuntimeCollector
	if *metrics {
		cfg.Metrics = obs.NewRegistry()
		defer func() {
			// One synchronous runtime-metrics pass so the exposition always
			// carries the npdbench_runtime_* family, ticker or not.
			collector.Collect()
			fmt.Printf("\nmetrics:\n%s", cfg.Metrics.PrometheusText())
		}()
	}
	if *httpAddr != "" {
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		// An explicit mux (pprof is wired by hand rather than through the
		// DefaultServeMux side effect of importing net/http/pprof) behind
		// a server with timeouts: a stuck or slow scrape client must not
		// hold a connection open for the lifetime of the run.
		mux := http.NewServeMux()
		mux.Handle("/metrics", cfg.Metrics.Handler())
		if cfg.SlowLog == nil {
			cfg.SlowLog = obs.NewSlowLog(0)
		}
		mux.Handle("/debug/slowlog", cfg.SlowLog.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{
			Addr:              *httpAddr,
			Handler:           mux,
			ReadTimeout:       10 * time.Second,
			ReadHeaderTimeout: 5 * time.Second,
			WriteTimeout:      0, // pprof profile/trace streams run long
			IdleTimeout:       2 * time.Minute,
		}
		addr, stopHTTP, err := server.StartHTTP(srv)
		if err != nil {
			fatal(err)
		}
		// Drain before exit: without this the process used to die with
		// the listener still accepting and scrapes cut off mid-response.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := stopHTTP(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "mixer: http shutdown:", err)
			}
		}()
		fmt.Printf("serving /metrics, /debug/slowlog and /debug/pprof on %s\n", addr)
	}
	if cfg.Metrics != nil {
		// Bridge runtime/metrics (heap, GC, goroutines, sched latency) into
		// the same registry the engine writes, so one scrape shows both.
		collector = obs.NewRuntimeCollector(cfg.Metrics)
		collector.Start(0)
		defer collector.Stop()
	}

	switch {
	case *table == 3:
		emit(mixer.Table3())
	case *table == 7:
		emit(mixer.Table7())
	case *table == 8:
		growths := make([]float64, 0, len(cfg.Scales))
		for _, k := range cfg.Scales {
			if k > 1 {
				growths = append(growths, k-1)
			}
		}
		if len(growths) == 0 {
			growths = []float64{1, 4}
		}
		emit(mixer.Table8(cfg.SeedScale, cfg.Seed, growths))
	case *table == 9:
		cfg.Profile = sqldb.ProfileHashJoin
		rep, err := mixer.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(mixer.TractableTable(rep, "Table 9: tractable queries (hash-join profile / MySQL-like)"))
	case *table == 10:
		cfg.Profile = sqldb.ProfileSortMerge
		rep, err := mixer.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(mixer.TractableTable(rep, "Table 10: tractable queries (sort-merge profile / PostgreSQL-like)"))
	case *figure == 1:
		emit(mixer.Figure1(cfg))
	case *store:
		emit(mixer.StoreComparison(cfg))
	case *breakdown:
		rep, err := mixer.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.Summary())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f < 1 {
			return nil, fmt.Errorf("bad scale %q (need numbers >= 1)", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func emit(s string, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixer:", err)
	os.Exit(1)
}
