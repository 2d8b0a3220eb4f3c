package npdbench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

var updatePrune = flag.Bool("update", false, "rewrite the static-pruning golden file")

// renderRows flattens a result set into sorted row strings so that answer
// sets can be compared independently of arm ordering in the generated SQL.
func renderRows(a *core.Answer) []string {
	out := make([]string, 0, a.Len())
	for _, row := range a.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			if t.IsZero() {
				parts[i] = "_"
			} else {
				parts[i] = t.String()
			}
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}

// sqlDigest is the first 16 hex digits of the SHA-256 of an unfolded SQL
// text: enough to pin the statement byte for byte in a readable golden.
func sqlDigest(sql string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sql)))[:16]
}

// TestStaticPruneGoldenNPD pins, for each of the 21 NPD queries, the
// mapping candidates unfold's template arc consistency deletes, the union
// arms, and digests of the unfolded SQL under DefaultOptions and under the
// bench oracle's reference configuration (no constraints, no plan cache,
// sequential). Regenerate with: go test . -run StaticPruneGolden -update
func TestStaticPruneGoldenNPD(t *testing.T) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		Onto: npd.NewOntology(), Mapping: npd.NewMapping(),
		DB: db, Prefixes: npd.Prefixes(),
	}
	def := core.DefaultOptions()
	def.VerifyPlans = core.VerifyOn
	ref := core.Options{TMappings: true, Existential: true, Parallelism: 1, VerifyPlans: core.VerifyOn}
	engDef, err := core.NewEngine(spec, def)
	if err != nil {
		t.Fatal(err)
	}
	engRef, err := core.NewEngine(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("query\tstatic_arms\tunion_arms\tsql_default\tsql_reference\n")
	for _, q := range npd.Queries() {
		ans, err := engDef.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		refAns, err := engRef.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s (reference): %v", q.ID, err)
		}
		st := ans.Stats
		fmt.Fprintf(&sb, "%s\t%d\t%d\t%s\t%s\n", q.ID, st.StaticPrunedArms, st.UnionArms,
			sqlDigest(st.UnfoldedSQL), sqlDigest(refAns.Stats.UnfoldedSQL))
	}
	got := sb.String()
	path := filepath.Join("testdata", "static_prune.golden")
	if *updatePrune {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("static-pruning counts or unfolded SQL drifted from golden; review and regenerate with -update\ngot:\n%s\nwant:\n%s", got, want)
	}
}
