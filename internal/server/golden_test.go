package server

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"npdbench/internal/npd"
)

var updateResults = flag.Bool("update", false, "rewrite testdata/results.golden from the current writers")

// TestResultBytesGolden serves all 21 NPD queries on the seed instance at
// scale 0.15 and pins, per query and format, the length and SHA-256 of the
// response body. The golden holds bytes, not answers: row order, escaping,
// object key order and the trailing newline all count.
func TestResultBytesGolden(t *testing.T) {
	h := New(testEngine(t, 1, nil), Config{}).Handler()
	var got strings.Builder
	for _, bq := range npd.Queries() {
		for _, f := range []struct{ name, accept string }{
			{"json", "application/sparql-results+json"},
			{"tsv", "text/tab-separated-values"},
		} {
			req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(bq.SPARQL), nil)
			req.Header.Set("Accept", f.accept)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", bq.ID, f.name, rec.Code, rec.Body.String())
			}
			fmt.Fprintf(&got, "%s %s %d %x\n", bq.ID, f.name, rec.Body.Len(), sha256.Sum256(rec.Body.Bytes()))
		}
	}
	const path = "testdata/results.golden"
	if *updateResults {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("response bytes differ from %s:\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
