package npdbench

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
)

// TestConstraintsReduceNPDQueries runs every NPD query through two engines
// that differ only in Options.Constraints and checks that the
// schema-constraint optimizations (key-based self-join merging, arm
// subsumption, typed template disjointness) are (a) sound — the same
// bindings, compared as order-insensitive digests — and (b) effective: at
// least one query unfolds to a strictly simpler SQL plan, measured by
// SQLMetrics. The constraints-off engine still joins templates with
// different skeletons by comparing their concatenated strings, so it is
// the oracle for the arms typed disjointness prunes.
func TestConstraintsReduceNPDQueries(t *testing.T) {
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		Onto: npd.NewOntology(), Mapping: npd.NewMapping(),
		DB: db, Prefixes: npd.Prefixes(),
	}
	engOff, err := core.NewEngine(spec, core.Options{TMappings: true, Existential: true})
	if err != nil {
		t.Fatal(err)
	}
	engOn, err := core.NewEngine(spec, core.Options{TMappings: true, Existential: true, Constraints: true})
	if err != nil {
		t.Fatal(err)
	}

	improved := 0
	for _, q := range npd.Queries() {
		pOff, err := engOff.ParseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := engOn.ParseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		aOff, err := engOff.Answer(pOff)
		if err != nil {
			t.Fatalf("%s (constraints off): %v", q.ID, err)
		}
		aOn, err := engOn.Answer(pOn)
		if err != nil {
			t.Fatalf("%s (constraints on): %v", q.ID, err)
		}
		if dOn, dOff := bindingsDigest(aOn), bindingsDigest(aOff); dOn != dOff {
			t.Errorf("%s: answers diverge — digest %s (%d rows) with constraints, %s (%d rows) without",
				q.ID, dOn, aOn.Len(), dOff, aOff.Len())
		}
		on, off := aOn.Stats, aOff.Stats
		if on.UnionArms > off.UnionArms || on.SQL.InnerQueries > off.SQL.InnerQueries ||
			on.SQL.Joins > off.SQL.Joins {
			t.Errorf("%s: constraints made the plan larger: on %+v off %+v",
				q.ID, on.SQL, off.SQL)
		}
		if on.SubsumedArms > 0 || on.SelfJoinsEliminated > off.SelfJoinsEliminated ||
			on.UnionArms < off.UnionArms || on.SQL.InnerQueries < off.SQL.InnerQueries {
			improved++
			t.Logf("%s: arms %d->%d, selfJoins %+d, subsumed %d, inner queries %d->%d, joins %d->%d",
				q.ID, off.UnionArms, on.UnionArms,
				on.SelfJoinsEliminated-off.SelfJoinsEliminated, on.SubsumedArms,
				off.SQL.InnerQueries, on.SQL.InnerQueries,
				off.SQL.Joins, on.SQL.Joins)
		}
	}
	if improved == 0 {
		t.Error("no NPD query benefited from constraint-driven optimization")
	}
}

// bindingsDigest hashes an answer's rows independently of their order.
func bindingsDigest(a *core.Answer) string {
	h := sha256.Sum256([]byte(strings.Join(renderRows(a), "\n")))
	return hex.EncodeToString(h[:8])
}
