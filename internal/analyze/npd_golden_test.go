package analyze_test

import (
	"flag"
	"os"
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/npd"
)

var update = flag.Bool("update", false, "rewrite the golden lint report")

// TestNPDGoldenReport pins the analyzer's output over the seed NPD
// artifacts: the benchmark spec must lint clean (no errors or warnings —
// obdalint is the CI gate), and the full report must match the checked-in
// golden file so any artifact or analyzer drift is reviewed explicitly.
// Regenerate with: go test ./internal/analyze -run Golden -update
func TestNPDGoldenReport(t *testing.T) {
	db, err := npd.NewDatabase()
	if err != nil {
		t.Fatal(err)
	}
	res := analyze.Run(analyze.Input{
		Mapping:  npd.NewMapping(),
		Ontology: npd.NewOntology(),
		DB:       db,
	})
	if res.Report.HasErrors() || res.Report.Count(analyze.SevWarning) > 0 {
		t.Fatalf("NPD artifacts should lint clean, got: %s", res.Report.Summary())
	}
	// The deliberate M2 redundancies must be visible as infos.
	if n := res.Report.ByCode()[analyze.CodeRedundantAssertion]; n < 10 {
		t.Errorf("expected the M2 redundant assertions to be flagged, got %d", n)
	}

	got := res.Report.String()
	const path = "testdata/npd_report.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("lint report drifted from golden; review and regenerate with -update\ngot %d bytes, want %d", len(got), len(want))
	}

	cs := res.Constraints.Stats()
	if cs.Tables == 0 || cs.Keys == 0 || cs.NotNullColumns == 0 {
		t.Errorf("constraints look empty: %+v", cs)
	}
}
