// Command repolint runs the repository's typed static-analysis engine
// (internal/lint) over the module: the whole tree is loaded through
// go/parser + go/types + go/importer and an ordered catalog of type-aware
// passes checks the invariants the engine implementation has to hold —
// shared-storage aliasing/ownership and guarded-field lock discipline
// (interprocedural, via call-graph summaries), goroutine hygiene, iterator
// close, discarded errors, the observability timing funnel, http server
// hygiene, and cooperative-stop flow.
//
//	repolint                   # text report over the whole module
//	repolint -json             # machine-readable report (obdalint shape)
//	repolint -strict           # any finding fails; suppressions must be
//	                           # allowlisted and used
//	repolint -golden FILE      # diff the canonical report against FILE
//	repolint -allow FILE       # suppression allowlist ("path pass" lines)
//	repolint -budget DURATION  # fail when load+passes exceed the budget
//	repolint -quiet            # summary line only
//
// Run it from the module root; it takes no positional arguments. Exits 0
// when clean, 1 on error- or warning-severity findings (or, with -strict,
// suppression / golden / budget violations), 2 on usage or load errors.
// ci.sh gates on `repolint -strict` with the golden repo report, the
// documented suppression allowlist, and the timing budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"npdbench/internal/lint"
	"npdbench/internal/obs"
)

func main() {
	var (
		asJSON = flag.Bool("json", false, "emit the report as JSON")
		strict = flag.Bool("strict", false, "fail on any finding; check suppressions against the allowlist")
		quiet  = flag.Bool("quiet", false, "print only the summary line")
		golden = flag.String("golden", "", "compare the canonical text report against this file")
		allow  = flag.String("allow", "", "suppression allowlist file")
		budget = flag.Duration("budget", 0, "fail when typed load + passes exceed this wall time")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: repolint [-json|-quiet] [-strict] [-allow FILE] [-golden FILE] [-budget DURATION]")
		os.Exit(2)
	}

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loadStart := obs.Now()
	mod, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	loadTime := obs.Since(loadStart)
	rep := lint.Run(mod, lint.Catalog())
	rep.LoadTime = loadTime

	exit := 0
	if rep.Count(lint.SevError)+rep.Count(lint.SevWarning) > 0 {
		exit = 1
	}

	switch {
	case *asJSON:
		b, err := json.MarshalIndent(rep.Payload(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case *quiet:
		fmt.Println(rep.Summary())
	default:
		fmt.Print(rep.String())
	}

	if *strict {
		if msgs := checkSuppressions(rep, *allow); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "repolint:", m)
			}
			exit = 1
		}
	}
	if *golden != "" {
		want, err := os.ReadFile(*golden)
		if err != nil {
			fatal(err)
		}
		if got := rep.String(); got != string(want) {
			fmt.Fprintf(os.Stderr, "repolint: report differs from golden %s\n--- golden\n%s--- got\n%s", *golden, want, got)
			exit = 1
		}
	}
	if *budget > 0 {
		total := rep.LoadTime + rep.CallgraphTime + rep.SummaryTime + rep.PassTime
		if total > *budget {
			fmt.Fprintf(os.Stderr, "repolint: load+callgraph+summaries+passes took %v, over the %v budget (load %v, callgraph %v, summaries %v, passes %v)\n",
				total.Round(time.Millisecond), *budget,
				rep.LoadTime.Round(time.Millisecond), rep.CallgraphTime.Round(time.Millisecond),
				rep.SummaryTime.Round(time.Millisecond), rep.PassTime.Round(time.Millisecond))
			exit = 1
		}
	}
	os.Exit(exit)
}

// checkSuppressions enforces the -strict suppression policy: every
// //lint:ignore in the tree must appear in the allowlist ("<path> <pass>"
// lines, # comments) and must have matched a diagnostic — a stale
// suppression hides nothing and has to be deleted.
func checkSuppressions(rep *lint.Report, allowFile string) []string {
	allowed := map[string]bool{}
	if allowFile != "" {
		b, err := os.ReadFile(allowFile)
		if err != nil {
			return []string{err.Error()}
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			allowed[strings.Join(strings.Fields(line), " ")] = true
		}
	}
	var msgs []string
	for _, s := range rep.Suppressions {
		key := s.Pos.Filename + " " + s.Pass
		if !allowed[key] {
			msgs = append(msgs, fmt.Sprintf("%s:%d: suppression of %s is not in the allowlist (%s)",
				s.Pos.Filename, s.Pos.Line, s.Pass, key))
		}
		if !s.Used {
			msgs = append(msgs, fmt.Sprintf("%s:%d: suppression of %s matches no diagnostic; delete it",
				s.Pos.Filename, s.Pos.Line, s.Pass))
		}
	}
	return msgs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repolint:", err)
	os.Exit(2)
}
