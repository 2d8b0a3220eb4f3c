package core

import (
	"fmt"
	"strings"
	"testing"

	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
	"npdbench/internal/unfold"
)

func tp(s, p, o sparql.TermOrVar) sparql.TriplePattern {
	return sparql.TriplePattern{S: s, P: p, O: o}
}

func TestPlanKeyCanonicalization(t *testing.T) {
	name := sparql.T(rdf.NewIRI(exNS + "name"))
	sells := sparql.T(rdf.NewIRI(exNS + "SellsProduct"))
	a := tp(sparql.V("x"), name, sparql.V("n"))
	b := tp(sparql.V("x"), sells, sparql.V("p"))

	k1 := planKey(&sparql.BGP{Triples: []sparql.TriplePattern{a, b}}, nil)
	k2 := planKey(&sparql.BGP{Triples: []sparql.TriplePattern{b, a}}, nil)
	if k1 != k2 {
		t.Fatalf("triple order changed the key:\n%q\n%q", k1, k2)
	}

	// Different variable naming is a different shape (no alpha-renaming in
	// the signature) and must not collide.
	c := tp(sparql.V("y"), name, sparql.V("n"))
	k3 := planKey(&sparql.BGP{Triples: []sparql.TriplePattern{c, b}}, nil)
	if k1 == k3 {
		t.Fatalf("distinct shapes share a key: %q", k1)
	}

	// Pushed filters are order-insensitive too.
	f1 := unfold.PushFilter{Var: "n", Op: "=", Val: rdf.NewLiteral("John")}
	f2 := unfold.PushFilter{Var: "p", Op: "!=", Val: rdf.NewLiteral("p1")}
	bgp := &sparql.BGP{Triples: []sparql.TriplePattern{a, b}}
	if planKey(bgp, []unfold.PushFilter{f1, f2}) != planKey(bgp, []unfold.PushFilter{f2, f1}) {
		t.Fatal("filter order changed the key")
	}
	if planKey(bgp, []unfold.PushFilter{f1}) == planKey(bgp, nil) {
		t.Fatal("filtered and unfiltered shapes share a key")
	}
	f3 := unfold.PushFilter{Var: "n", Op: "=", Val: rdf.NewLiteral("Lisa")}
	if planKey(bgp, []unfold.PushFilter{f1}) == planKey(bgp, []unfold.PushFilter{f3}) {
		t.Fatal("different filter values share a key")
	}
}

func TestPlanCacheEvictsOneAtCapacity(t *testing.T) {
	c := newPlanCache(2, nil)
	c.put("a", &compiledPlan{}, 0)
	c.put("b", &compiledPlan{}, 0)
	c.put("b", &compiledPlan{}, 0) // a present key replaces, never evicts
	if st := c.stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("before capacity: %+v, want 0 evictions and 2 entries", st)
	}
	c.put("c", &compiledPlan{}, 0) // at capacity: exactly one of a, b goes

	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry was evicted")
	}
	_, okA := c.get("a")
	_, okB := c.get("b")
	if okA == okB {
		t.Fatalf("a kept %v, b kept %v: want exactly one older entry evicted", okA, okB)
	}
	st := c.stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
}

// TestPlanCacheBoundsAggregateShapes sends more distinct aggregate shapes
// over one BGP than the cache holds: every pushdown statement is an entry
// of the one bounded cache, so the cache evicts instead of growing.
func TestPlanCacheBoundsAggregateShapes(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var items []string
	for _, v := range []string{"?x", "?n", "?p"} {
		items = append(items, "COUNT("+v+")", "COUNT(DISTINCT "+v+")")
	}
	items = append(items, "COUNT(*)")
	shapes := 0
	for _, a := range items {
		for _, b := range items {
			for _, c := range items {
				q := fmt.Sprintf(`SELECT (%s AS ?a) (%s AS ?b) (%s AS ?c) WHERE { ?x :name ?n . ?x :SellsProduct ?p }`, a, b, c)
				ans, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Stats.UnfoldedSQL == "" || ans.Len() != 1 {
					t.Fatalf("%s: not answered by one pushed statement (%d rows)", q, ans.Len())
				}
				shapes++
			}
		}
	}
	st, _ := e.PlanCacheStats()
	if shapes < 300 {
		t.Fatalf("only %d shapes sent", shapes)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("%d shapes left %d entries, over capacity %d", shapes, st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("%d shapes caused no eviction: %+v", shapes, st)
	}
}

func TestPlanCacheBoundedUnderLoad(t *testing.T) {
	c := newPlanCache(8, nil) // 1 entry per shard
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("k%d", i), &compiledPlan{}, 0)
	}
	st := c.stats()
	if st.Entries > 8 {
		t.Fatalf("entries = %d exceeds capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions < 100-8 {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, 100-8)
	}
}

func TestPlanCacheEpochGuardsStalePut(t *testing.T) {
	c := newPlanCache(8, nil)
	epoch := c.epochNow()
	c.invalidate() // a config change lands while "compiling"
	c.put("stale", &compiledPlan{}, epoch)
	if _, ok := c.get("stale"); ok {
		t.Fatal("pre-invalidation plan was published after invalidate")
	}
	c.put("fresh", &compiledPlan{}, c.epochNow())
	if _, ok := c.get("fresh"); !ok {
		t.Fatal("current-epoch put did not land")
	}
	if st := c.stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestEngineCacheHitOnRepeat(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(exampleSpec(t), Options{
		TMappings: true, Existential: true, Constraints: true, PlanCache: true,
		Obs: &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`

	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanCacheHits != 0 || first.Stats.PlanCacheMisses == 0 {
		t.Fatalf("first run: hits=%d misses=%d, want cold miss",
			first.Stats.PlanCacheHits, first.Stats.PlanCacheMisses)
	}
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PlanCacheHits == 0 || second.Stats.PlanCacheMisses != 0 {
		t.Fatalf("second run: hits=%d misses=%d, want warm hit",
			second.Stats.PlanCacheHits, second.Stats.PlanCacheMisses)
	}
	if first.Len() != second.Len() {
		t.Fatalf("cached run changed the answer: %d vs %d rows", first.Len(), second.Len())
	}
	// Shape counters must be replayed from the cached plan, not zeroed.
	if second.Stats.UnionArms != first.Stats.UnionArms || second.Stats.CQCount != first.Stats.CQCount {
		t.Fatalf("cached run lost shape counters: first %+v second %+v", first.Stats, second.Stats)
	}
	st, on := e.PlanCacheStats()
	if !on {
		t.Fatal("PlanCacheStats reports cache off")
	}
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache stats %+v, want hits and entries > 0", st)
	}
	text := reg.PrometheusText()
	if !strings.Contains(text, "npdbench_compile_cache_hits_total") ||
		!strings.Contains(text, "npdbench_compile_cache_entries") {
		t.Fatalf("compile-cache metric family missing from exposition:\n%s", text)
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), Options{TMappings: true, Existential: true, Constraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, on := e.PlanCacheStats(); on {
		t.Fatal("PlanCacheStats reports cache on for a cache-off engine")
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.PlanCacheHits != 0 || ans.Stats.PlanCacheMisses != 0 {
		t.Fatalf("cache-off run reported cache traffic: %+v", ans.Stats)
	}
	if ans.Len() != 2 {
		t.Fatalf("got %d rows, want 2", ans.Len())
	}
}

func TestEngineInvalidationOnConstraintChange(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`
	warm := func() *Answer {
		t.Helper()
		ans, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	before := warm()
	if hit := warm(); hit.Stats.PlanCacheHits == 0 {
		t.Fatal("second run did not hit the cache")
	}

	// Re-installing the mapping re-derives the constraints, so it must
	// flush every cached plan exactly once: a plan compiled with self-join
	// merging under the old constraints is stale afterwards.
	e.SetMapping(exampleSpec(t).Mapping)
	st, _ := e.PlanCacheStats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("after SetMapping: %+v, want 1 invalidation and 0 entries", st)
	}
	after := warm()
	if after.Stats.PlanCacheHits != 0 || after.Stats.PlanCacheMisses == 0 {
		t.Fatalf("post-invalidation run: hits=%d misses=%d, want recompile",
			after.Stats.PlanCacheHits, after.Stats.PlanCacheMisses)
	}
	if before.Len() != after.Len() {
		t.Fatalf("answers diverged across invalidation: %d vs %d rows", before.Len(), after.Len())
	}
}

func TestEngineInvalidatePlansKeepsAnswers(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT DISTINCT ?x WHERE { ?x a :Person }`
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidatePlans()
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PlanCacheMisses == 0 {
		t.Fatal("run after InvalidatePlans did not recompile")
	}
	if first.Len() != second.Len() {
		t.Fatalf("answers diverged: %d vs %d rows", first.Len(), second.Len())
	}
}
