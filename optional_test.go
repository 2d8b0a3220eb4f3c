package npdbench

import (
	"strconv"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

// TestOptionalFilterSeesLeftSide runs an OPTIONAL whose own FILTER
// compares a variable of the optional part with one bound only on the
// left, through the OBDA engine and the reasoning triple store. SPARQL
// 1.1 §18.2.2 makes that FILTER the left join's condition, evaluated on
// the merged solution: a wellbore keeps its depth exactly when the depth
// exceeds its completion year. Both engines must agree, and both must
// bind some depths and leave others unbound.
func TestOptionalFilterSeesLeftSide(t *testing.T) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	eng, err := core.NewEngine(spec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewStoreEngine(spec, core.StoreOptions{Reasoning: true})
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT ?w ?year ?depth WHERE {
  ?w a npdv:ExplorationWellbore ;
     npdv:wellboreCompletionYear ?year .
  OPTIONAL { ?w npdv:wlbTotalDepth ?depth FILTER(?depth > ?year + 1000) }
}`
	obda, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := store.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := bindingsDigest(obda), bindingsDigest(ref); d1 != d2 {
		t.Fatalf("OBDA digest %s (%d rows) vs store %s (%d rows)", d1, obda.Len(), d2, ref.Len())
	}
	bound, unbound := 0, 0
	for _, row := range obda.Rows {
		if row[2].IsZero() {
			unbound++
			continue
		}
		bound++
		year, _ := strconv.ParseFloat(row[1].Value, 64)
		depth, _ := strconv.ParseFloat(row[2].Value, 64)
		if depth <= year+1000 {
			t.Errorf("%s: depth %s kept although it is not above %s + 1000", row[0], row[2].Value, row[1].Value)
		}
	}
	if bound == 0 || unbound == 0 {
		t.Fatalf("%d rows with a depth, %d without; want both (the condition must see ?year)", bound, unbound)
	}
}
