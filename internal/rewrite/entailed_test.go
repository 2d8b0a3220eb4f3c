package rewrite_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/rewrite"
	"npdbench/internal/vig"
)

// npdInstance seeds the NPD database at scale 0.15 (data seed 42) and
// grows it with VIG when growth > 1.
func npdInstance(t *testing.T, growth float64) core.Spec {
	t.Helper()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: 0.15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if growth > 1 {
		a, err := vig.Analyze(db)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vig.New(a, 42).Generate(db, growth-1); err != nil {
			t.Fatal(err)
		}
	}
	return core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
}

// mixAnswers runs the 21 NPD queries on a fresh engine and returns, per
// query, an order-insensitive digest of its bindings and its union arms.
func mixAnswers(t *testing.T, spec core.Spec, opts core.Options) (digests map[string]string, arms map[string]int) {
	t.Helper()
	eng, err := core.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	digests, arms = map[string]string{}, map[string]int{}
	for _, q := range npd.Queries() {
		ans, err := eng.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		rows := make([]string, len(ans.Rows))
		for i, row := range ans.Rows {
			cells := make([]string, len(row))
			for j, c := range row {
				cells[j] = c.String()
			}
			rows[i] = strings.Join(cells, "\t")
		}
		sort.Strings(rows)
		h := sha256.Sum256([]byte(strings.Join(ans.Vars, "\t") + "\n" + strings.Join(rows, "\n")))
		digests[q.ID] = hex.EncodeToString(h[:8])
		arms[q.ID] = ans.Stats.UnionArms
	}
	return digests, arms
}

// withoutDropEntailed runs f with the entailed-atom pass switched off.
func withoutDropEntailed(f func()) {
	restore := rewrite.SetDropEntailed(false)
	defer restore()
	f()
}

// TestDropEntailedKeepsAnswers is the differential soundness test of the
// entailed-atom pass: every NPD query returns the same bindings with the
// pass on and off, on the seed instance and on a VIG-grown one, with
// existential reasoning on and off.
func TestDropEntailedKeepsAnswers(t *testing.T) {
	noExistential := core.DefaultOptions()
	noExistential.Existential = false
	for _, inst := range []struct {
		name   string
		growth float64
	}{{"seed", 1}, {"vig-grown", 4}} {
		spec := npdInstance(t, inst.growth)
		for _, cfg := range []struct {
			name string
			opts core.Options
		}{{"default", core.DefaultOptions()}, {"no-existential", noExistential}} {
			on, _ := mixAnswers(t, spec, cfg.opts)
			var off map[string]string
			withoutDropEntailed(func() { off, _ = mixAnswers(t, spec, cfg.opts) })
			for _, q := range npd.Queries() {
				if on[q.ID] != off[q.ID] {
					t.Errorf("%s/%s %s: digest %s with the pass, %s without",
						inst.name, cfg.name, q.ID, on[q.ID], off[q.ID])
				}
			}
		}
	}
}

// TestDropEntailedArms pins the union arms of the three queries the pass
// shrinks most under DefaultOptions, with the pass on and off.
func TestDropEntailedArms(t *testing.T) {
	spec := npdInstance(t, 1)
	_, on := mixAnswers(t, spec, core.DefaultOptions())
	var off map[string]int
	withoutDropEntailed(func() { _, off = mixAnswers(t, spec, core.DefaultOptions()) })
	for _, want := range []struct {
		id      string
		on, off int
	}{{"q6", 9, 126}, {"q13", 1, 70}, {"q19", 8, 112}} {
		if on[want.id] != want.on || off[want.id] != want.off {
			t.Errorf("%s: arms %d with the pass and %d without, want %d and %d",
				want.id, on[want.id], off[want.id], want.on, want.off)
		}
	}
}
