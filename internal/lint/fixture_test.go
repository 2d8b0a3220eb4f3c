package lint

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden fixture reports")

// fixtureCases maps each catalog pass to its fixture package. Every
// fixture seeds at least one true violation and one near-miss; the golden
// report asserts both — the violation by its presence, the near-miss by
// the exact-match absence of any further diagnostic.
var fixtureCases = []struct {
	pass       string
	dir        string
	importPath string
}{
	{"sharedmut", "sharedmut", "fixture/sharedmut"},
	{"lockguard", "lockguard", "fixture/lockguard"},
	// The gohygiene pass only fires inside internal/sqldb and
	// internal/core, so the fixture borrows a qualifying import path.
	{"gohygiene", "gohygiene", "fixture/internal/sqldb"},
	{"iterclose", "iterclose", "fixture/iterclose"},
	{"discarderr", "discarderr", "fixture/discarderr"},
	{"timingfunnel", "timingfunnel", "fixture/timingfunnel"},
	{"srvhygiene", "srvhygiene", "fixture/srvhygiene"},
	{"stopflow", "stopflow", "fixture/stopflow"},
	// The interprocedural fixtures: every seeded violation crosses a
	// function boundary. The interp fixture's golden pins that the engine
	// does not report the fpDemo false positive, which only a callee
	// summary clears.
	{"lockguard", "lockguard_interp", "fixture/lockguard_interp"},
	{"sharedmut", "sharedmut_interp", "fixture/sharedmut_interp"},
	{"sharedmut", "interp", "fixture/interp"},
}

// loadFixture type-checks one fixture package and runs the named pass
// over it.
func loadFixture(t *testing.T, dir, importPath, pass string) *Report {
	t.Helper()
	mod, err := LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	p := PassByName(pass)
	if p == nil {
		t.Fatalf("pass %q is not in the catalog", pass)
	}
	return Run(mod, []*Pass{p})
}

// TestPassFixtures runs each pass over its fixture package and compares
// the canonical report against the committed golden (refresh with
// `go test ./internal/lint -run TestPassFixtures -update`).
func TestPassFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.pass, func(t *testing.T) {
			rep := loadFixture(t, tc.dir, tc.importPath, tc.pass)
			got := rep.String()
			golden := filepath.Join("testdata", tc.dir+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report differs from %s\n--- want\n%s--- got\n%s", golden, want, got)
			}
			if len(rep.Diags) == 0 {
				t.Errorf("fixture %s seeds a violation but the pass reported nothing", tc.dir)
			}
		})
	}
}

// TestSuppression checks the ignore-directive plumbing end to end: a
// matching directive moves the diagnostic to the suppressed list and is
// marked used; a directive matching nothing stays unused.
func TestSuppression(t *testing.T) {
	rep := loadFixture(t, "suppress", "fixture/suppress", "lockguard")
	if len(rep.Diags) != 0 {
		t.Errorf("suppressed diagnostic survived: %v", rep.Diags)
	}
	if len(rep.Suppressed) != 1 {
		t.Fatalf("got %d suppressed diagnostics, want 1", len(rep.Suppressed))
	}
	if len(rep.Suppressions) != 2 {
		t.Fatalf("got %d suppression directives, want 2", len(rep.Suppressions))
	}
	var used, unused int
	for _, s := range rep.Suppressions {
		if s.Used {
			used++
		} else {
			unused++
		}
	}
	if used != 1 || unused != 1 {
		t.Errorf("got %d used / %d unused suppressions, want 1/1", used, unused)
	}
}

// TestReportJSON checks the machine-readable shape against the obdalint
// contract: summary, per-severity counts, per-pass counts, and the
// diagnostics themselves.
func TestReportJSON(t *testing.T) {
	rep := loadFixture(t, "sharedmut", "fixture/sharedmut", "sharedmut")
	p := rep.Payload()
	if p.Summary != rep.Summary() {
		t.Errorf("payload summary %q != report summary %q", p.Summary, rep.Summary())
	}
	if p.Counts["error"] != 1 {
		t.Errorf("counts[error] = %d, want 1", p.Counts["error"])
	}
	if p.ByPass["sharedmut"] != 1 {
		t.Errorf("by_pass[sharedmut] = %d, want 1", p.ByPass["sharedmut"])
	}
	if len(p.Diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(p.Diagnostics))
	}
	d := p.Diagnostics[0]
	if d.Pass != "sharedmut" || d.Severity != "error" || d.File != "sharedmut.go" || d.Line == 0 {
		t.Errorf("diagnostic fields wrong: %+v", d)
	}
}

// TestCatalogOrder pins the pass catalog: order is part of the output
// contract, and every pass must be reachable by name.
func TestCatalogOrder(t *testing.T) {
	want := []string{"sharedmut", "lockguard", "gohygiene", "iterclose", "discarderr", "timingfunnel", "srvhygiene", "stopflow"}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d passes, want %d", len(cat), len(want))
	}
	for i, p := range cat {
		if p.Name != want[i] {
			t.Errorf("catalog[%d] = %s, want %s", i, p.Name, want[i])
		}
		if PassByName(p.Name) == nil {
			t.Errorf("PassByName(%q) = nil", p.Name)
		}
	}
	if PassByName("nosuchpass") != nil {
		t.Error("PassByName of an unknown name should be nil")
	}
}
