package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/mixer"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// testEngine builds one small NPD engine per configuration, shared across
// the package's tests (instance generation dominates test wall time).
var engOnce struct {
	sync.Mutex
	cache map[string]*core.Engine
}

func testEngine(t *testing.T, parallelism int, reg *obs.Registry) *core.Engine {
	t.Helper()
	key := fmt.Sprintf("p%d-reg%v", parallelism, reg != nil)
	engOnce.Lock()
	defer engOnce.Unlock()
	if engOnce.cache == nil {
		engOnce.cache = make(map[string]*core.Engine)
	}
	if e, ok := engOnce.cache[key]; ok && reg == nil {
		return e
	}
	db, _, err := mixer.BuildInstance(1, 0.15, 42)
	if err != nil {
		t.Fatalf("building instance: %v", err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	var observer *obs.Observer
	if reg != nil {
		observer = &obs.Observer{Metrics: reg}
	}
	eng, err := core.NewEngine(spec, core.Options{
		TMappings:   true,
		Existential: true,
		Constraints: true,
		PlanCache:   true,
		Parallelism: parallelism,
		Obs:         observer,
	})
	if err != nil {
		t.Fatalf("building engine: %v", err)
	}
	if reg == nil {
		engOnce.cache[key] = eng
	}
	return eng
}

const testQuery = `PREFIX npdv: <http://sws.ifi.uio.no/vocab/npd-v2#>
SELECT ?licence WHERE { ?licence a npdv:ProductionLicence } LIMIT 5`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng := testEngine(t, 1, nil)
	if cfg.Obs != nil && cfg.Obs.Metrics != nil {
		eng = testEngine(t, 2, cfg.Obs.Metrics)
	}
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]map[string]string `json:"bindings"`
	} `json:"results"`
}

func decodeJSONResults(t *testing.T, r io.Reader) *jsonResults {
	t.Helper()
	var doc jsonResults
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatalf("decoding results JSON: %v", err)
	}
	return &doc
}

func TestProtocolGET(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(testQuery))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type %q", ct)
	}
	doc := decodeJSONResults(t, resp.Body)
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "licence" {
		t.Fatalf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("no bindings returned")
	}
	for _, b := range doc.Results.Bindings {
		if b["licence"]["type"] != "uri" {
			t.Fatalf("binding %v: want uri term", b)
		}
	}
}

func TestProtocolPOSTForm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {testQuery}, "label": {"q-test"}})
	if err != nil {
		t.Fatalf("POST form: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	doc := decodeJSONResults(t, resp.Body)
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("no bindings returned")
	}
}

func TestProtocolPOSTSparqlQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(testQuery))
	if err != nil {
		t.Fatalf("POST raw: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	doc := decodeJSONResults(t, resp.Body)
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("no bindings returned")
	}
}

func TestProtocolTSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(testQuery), nil)
	req.Header.Set("Accept", "text/tab-separated-values")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if lines[0] != "?licence" {
		t.Fatalf("TSV header %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatalf("TSV has no data rows:\n%s", body)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "<") || !strings.HasSuffix(l, ">") {
			t.Fatalf("TSV row %q: want IRI cell", l)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A valid query padded with a comment to n bytes: past maxQueryBytes
	// it must be refused with 413, not cut short and run.
	padded := func(prefix string, n int) string {
		return prefix + strings.Repeat("x", n-len(prefix))
	}
	rawQuery, form := "application/sparql-query", "application/x-www-form-urlencoded"
	for name, tc := range map[string]struct {
		method, path, ct, body string
		want                   int
	}{
		"missing query":    {http.MethodGet, "/sparql", "", "", http.StatusBadRequest},
		"bad sparql":       {http.MethodGet, "/sparql?query=NOT+SPARQL", "", "", http.StatusBadRequest},
		"bad method":       {http.MethodDelete, "/sparql?query=x", "", "", http.StatusMethodNotAllowed},
		"bad content type": {http.MethodPost, "/sparql", "application/xml", "<q/>", http.StatusBadRequest},
		"raw at limit": {http.MethodPost, "/sparql", rawQuery,
			padded(testQuery+"\n#", maxQueryBytes), http.StatusOK},
		"raw over limit": {http.MethodPost, "/sparql", rawQuery,
			padded(testQuery+"\n#", maxQueryBytes+1), http.StatusRequestEntityTooLarge},
		"form over limit": {http.MethodPost, "/sparql", form,
			padded("query="+url.QueryEscape(testQuery+"\n#"), maxQueryBytes+1), http.StatusRequestEntityTooLarge},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if tc.ct != "" {
			req.Header.Set("Content-Type", tc.ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
		if allow := resp.Header.Get("Allow"); tc.want == http.StatusMethodNotAllowed && allow != "GET, POST" {
			t.Errorf("%s: Allow %q, want %q", name, allow, "GET, POST")
		}
	}
}

// TestMetricsCountsEachGCOnce scrapes /metrics twice after forced
// collections: the GC counter must grow by the cycles since the previous
// scrape, so it can never exceed the process's own cycle count.
func TestMetricsCountsEachGCOnce(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Obs: &obs.Observer{Metrics: reg}})
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	got := reg.Counter("npdbench_runtime_gc_cycles_total").Value()
	if got < 3 || got > int64(ms.NumGC) {
		t.Fatalf("npdbench_runtime_gc_cycles_total = %d, want between 3 and NumGC = %d", got, ms.NumGC)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2, RetryAfter: 3 * time.Second})
	// Fill the admission semaphore directly: both slots busy.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(testQuery))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want 3", ra)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestResultsJSONShape(t *testing.T) {
	rs := &sparql.ResultSet{
		Vars: []string{"a", "b"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://x/1"), rdf.NewTypedLiteral("4", rdf.XSDInteger)},
			{rdf.NewLangLiteral("hei", "no"), {}}, // second var unbound
		},
	}
	var sb strings.Builder
	if err := writeJSON(&sb, rs); err != nil {
		t.Fatal(err)
	}
	doc := decodeJSONResults(t, strings.NewReader(sb.String()))
	if got := doc.Head.Vars; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("vars %v", got)
	}
	b0 := doc.Results.Bindings[0]
	if b0["a"]["type"] != "uri" || b0["a"]["value"] != "http://x/1" {
		t.Fatalf("row 0 var a: %v", b0["a"])
	}
	if b0["b"]["datatype"] != rdf.XSDInteger || b0["b"]["value"] != "4" {
		t.Fatalf("row 0 var b: %v", b0["b"])
	}
	b1 := doc.Results.Bindings[1]
	if b1["a"]["xml:lang"] != "no" {
		t.Fatalf("row 1 var a: %v", b1["a"])
	}
	if _, bound := b1["b"]; bound {
		t.Fatalf("row 1 var b should be omitted: %v", b1)
	}
}

func TestResultsTSVEscaping(t *testing.T) {
	rs := &sparql.ResultSet{
		Vars: []string{"v"},
		Rows: [][]rdf.Term{{rdf.NewLiteral("a\tb\"c\nd")}},
	}
	var sb strings.Builder
	if err := writeTSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	want := "?v\n\"a\\tb\\\"c\\nd\"\n"
	if sb.String() != want {
		t.Fatalf("TSV = %q, want %q", sb.String(), want)
	}
}

func TestNegotiateFormat(t *testing.T) {
	for accept, want := range map[string]resultFormat{
		"":                                formatJSON,
		"*/*":                             formatJSON,
		"application/sparql-results+json": formatJSON,
		"application/json":                formatJSON,
		"text/tab-separated-values":       formatTSV,
		"text/tab-separated-values;q=0.9, */*;q=0.1": formatTSV,
	} {
		if got := negotiateFormat(accept); got != want {
			t.Errorf("negotiateFormat(%q) = %v, want %v", accept, got, want)
		}
	}
}

func TestStartHTTPDrains(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "pong")
	})
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: mux}
	addr, stop, err := StartHTTP(srv)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/ping")
	if err != nil {
		t.Fatalf("GET before stop: %v", err)
	}
	resp.Body.Close()
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/ping"); err == nil {
		t.Fatal("server still serving after stop")
	}
}
