package npdbench

import (
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/sqldb"
)

// TestProfilesAgreeNPD answers every NPD query on one instance under the
// hash-join profile and under the sort-merge profile, whose greedy join
// orders bind each SELECT block again per order, and requires the same
// bindings from both.
func TestProfilesAgreeNPD(t *testing.T) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[string]string)
	for _, profile := range []sqldb.Profile{sqldb.ProfileHashJoin, sqldb.ProfileSortMerge} {
		db.Profile = profile
		eng, err := core.NewEngine(core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()},
			core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range npd.Queries() {
			ans, err := eng.Query(q.SPARQL)
			if err != nil {
				t.Fatalf("%s (%v): %v", q.ID, profile, err)
			}
			d := bindingsDigest(ans)
			if want, ok := digests[q.ID]; !ok {
				digests[q.ID] = d
			} else if d != want {
				t.Errorf("%s: %v digest %s (%d rows), hash join %s", q.ID, profile, d, ans.Len(), want)
			}
		}
	}
	if len(digests) != 21 {
		t.Fatalf("answered %d queries, want 21", len(digests))
	}
}
