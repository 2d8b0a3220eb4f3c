package main

import (
	"context"
	"fmt"
	"math"
)

// exactCounts are per-layer counts that depend only on the query list and
// the instance, so two runs of the same code must report them identically.
var exactCounts = []string{
	"unfold.arms_per_mix",
	"unfold.joins_per_mix",
	"sqldb.nested_loop.zero_key_ops_per_mix",
	"core.plancache_hit_ratio",
}

// worse returns by what share of a the value b is worse than a (negative
// when b is better).
func worse(def endToEndDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func valueOf(r resultLine, name string) float64 {
	if m, ok := r.Metrics[name]; ok {
		return m.Value
	}
	return math.NaN()
}

// selfcheck runs the full set twice on the same binary and holds the
// benchmark to its own bounds: every end-to-end metric of the second set
// must be within its bound of the first on every workload, no check may
// fail, and the deterministic counts must repeat exactly.
func selfcheck(ctx context.Context, seed int64, seconds float64, dir string) error {
	printEnv()
	var sets [2][]workloadReport
	for i := range sets {
		fmt.Printf("\n#### set %c\n", 'A'+i)
		reports, err := runAll(ctx, seed, seconds, dir, false)
		if err != nil {
			return err
		}
		sets[i] = reports
	}
	fmt.Printf("\n#### A/A comparison (seed %d, %g s per run)\n", seed, seconds)
	fmt.Printf("%-12s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	breaches := 0
	for wi, a := range sets[0] {
		b := sets[1][wi]
		for _, def := range endToEndDefs {
			va, vb := valueOf(a.EndToEnd, def.name), valueOf(b.EndToEnd, def.name)
			// Either order may be the "parent": judge the larger move.
			diff := math.Max(worse(def, va, vb), worse(def, vb, va))
			verdict := "ok"
			if !(diff <= def.bound) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", a.Name, def.name, va, vb, 100*diff, 100*def.bound, verdict)
		}
		for _, pass := range []resultLine{a.EndToEnd, b.EndToEnd, a.PerLayer, b.PerLayer} {
			if !pass.Correct {
				fmt.Printf("%-12s failed checks: %d of %d attempted\n", a.Name, pass.Failed, pass.Attempted)
				breaches++
			}
		}
		for _, name := range exactCounts {
			va, vb := valueOf(a.PerLayer, name), valueOf(b.PerLayer, name)
			verdict := "identical"
			if va != vb {
				verdict = "DIFFERS"
				breaches++
			}
			fmt.Printf("%-12s %-40s %12g %12g  %s\n", a.Name, name, va, vb, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breach(es)", breaches)
	}
	fmt.Println("selfcheck: passed")
	return nil
}
