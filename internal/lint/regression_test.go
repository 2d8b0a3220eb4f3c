package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeletedFixFailsTheBuild reverts three fixes the engine's passes
// drove into the real tree — the insertUnchecked index-maintenance lock
// (lockguard), the orderRelation pre-sort freshen (sharedmut), and
// obdaqd's configured http.Server (srvhygiene) — in a scratch copy of the
// repository, and asserts each regression is reported. Deleting a fix
// must fail the build.
func TestDeletedFixFailsTheBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyTree(t, root, tmp)

	// lockguard: run the secondary-index maintenance bare again.
	patch(t, filepath.Join(tmp, "internal", "sqldb", "table.go"),
		"\tt.mu.Lock()\n\tfor _, idx := range t.secondary {",
		"\tfor _, idx := range t.secondary {")
	patch(t, filepath.Join(tmp, "internal", "sqldb", "table.go"),
		"\tt.statsDirty = true\n\tt.mu.Unlock()",
		"\tt.statsDirty = true")
	// sharedmut: sort the possibly-aliased rows slice in place again.
	patch(t, filepath.Join(tmp, "internal", "sqldb", "plan.go"),
		"\tout.rows = append(make([]Row, 0, len(out.rows)), out.rows...)\n",
		"")
	// srvhygiene: serve the SPARQL endpoint bare again (alongside the
	// drained server.StartHTTP path, so every identifier stays used).
	patch(t, filepath.Join(tmp, "cmd", "obdaqd", "main.go"),
		"addr, stop, err := server.StartHTTP(hs)",
		"go func() { _ = http.ListenAndServe(hs.Addr, hs.Handler) }()\n\taddr, stop, err := server.StartHTTP(hs)")

	mod, err := LoadModule(tmp)
	if err != nil {
		t.Fatalf("loading patched module: %v", err)
	}
	rep := Run(mod, Catalog())
	wants := []struct{ file, msg string }{
		{"internal/sqldb/table.go", "(guarded by mu) accessed without holding t.mu"},
		{"internal/sqldb/plan.go", "sortRelation mutates r in place"},
		{"cmd/obdaqd/main.go", "bare http.ListenAndServe has no timeouts"},
	}
	for _, w := range wants {
		found := false
		for _, d := range rep.Diags {
			if d.Pos.Filename == w.file && strings.Contains(d.Msg, w.msg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("reverting the fix in %s was not reported (want a diagnostic containing %q)\ndiags: %v",
				w.file, w.msg, rep.Diags)
		}
	}
}

// copyTree copies the module sources into dst, skipping VCS metadata and
// testdata (fixtures are loaded separately and the goldens are irrelevant
// to a scratch load).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module tree: %v", err)
	}
}

// patch rewrites one occurrence of old with new and fails the test when
// the anchor text has drifted — a drifted anchor means the regression
// test no longer reverts what it claims to.
func patch(t *testing.T, file, old, new string) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), old) {
		t.Fatalf("%s no longer contains the fix anchor %q; update the regression test", file, old)
	}
	out := strings.Replace(string(b), old, new, 1)
	if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
