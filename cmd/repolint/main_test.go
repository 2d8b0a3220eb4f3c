package main

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npdbench/internal/lint"
)

// report builds a minimal lint.Report carrying the given suppressions.
func report(ss ...lint.Suppression) *lint.Report {
	return &lint.Report{Suppressions: ss}
}

func suppression(file string, line int, pass string, used bool) lint.Suppression {
	return lint.Suppression{
		Pass: pass, Reason: "test", Used: used,
		Pos: token.Position{Filename: file, Line: line},
	}
}

// TestCheckSuppressionsEmptyAllowlist checks the -strict default: every
// suppression directive is rejected until it is allowlisted, and unused
// directives are rejected regardless.
func TestCheckSuppressionsEmptyAllowlist(t *testing.T) {
	rep := report(
		suppression("internal/core/plancache.go", 85, "lockguard", true),
		suppression("internal/sqldb/plan.go", 10, "sharedmut", false),
	)
	msgs := checkSuppressions(rep, "")
	if len(msgs) != 3 {
		t.Fatalf("got %d messages, want 3 (2 not-allowed + 1 unused): %v", len(msgs), msgs)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "not in the allowlist") {
		t.Errorf("missing not-in-allowlist message: %v", msgs)
	}
	if !strings.Contains(joined, "matches no diagnostic") {
		t.Errorf("missing stale-suppression message: %v", msgs)
	}
}

// TestCheckSuppressionsAllowlisted checks that an allowlist entry (with
// comments and extra whitespace tolerated) admits a used suppression.
func TestCheckSuppressionsAllowlisted(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	content := "# documented suppressions\n\n  internal/core/plancache.go   lockguard  \n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := report(suppression("internal/core/plancache.go", 85, "lockguard", true))
	if msgs := checkSuppressions(rep, allow); len(msgs) != 0 {
		t.Errorf("allowlisted used suppression rejected: %v", msgs)
	}

	// The same entry does not cover a different pass in the same file.
	rep = report(suppression("internal/core/plancache.go", 85, "sharedmut", true))
	if msgs := checkSuppressions(rep, allow); len(msgs) != 1 {
		t.Errorf("got %d messages for a non-allowlisted pass, want 1: %v", len(msgs), msgs)
	}
}

// TestCheckSuppressionsStale checks that an allowlisted but unmatched
// directive is still rejected: stale suppressions hide nothing and must
// be deleted.
func TestCheckSuppressionsStale(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(allow, []byte("a.go lockguard\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := report(suppression("a.go", 3, "lockguard", false))
	msgs := checkSuppressions(rep, allow)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "matches no diagnostic") {
		t.Errorf("stale suppression not rejected: %v", msgs)
	}
}

// TestRepoIsStrictClean is the in-tree mirror of the ci gate: the engine
// over the whole module must report nothing unsuppressed, and every
// suppression must be documented in the committed allowlist.
func TestRepoIsStrictClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typed whole-module load is slow; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("typed load: %v", err)
	}
	rep := lint.Run(mod, lint.Catalog())
	for _, d := range rep.Diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
	if msgs := checkSuppressions(rep, filepath.Join(root, "testdata", "repolint_allow.txt")); len(msgs) > 0 {
		for _, m := range msgs {
			t.Errorf("suppression policy: %s", m)
		}
	}
}
