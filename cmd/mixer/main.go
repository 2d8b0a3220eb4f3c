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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"npdbench/internal/mixer"
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
