package unfold

import (
	"slices"
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
)

// disjointTemplateMapping maps two properties whose object templates can
// never unify (emp/{id} vs prod/{p} fixtures differ).
func disjointTemplateMapping() *r2rml.Mapping {
	return r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId worksWith
target    t:emp/{id} t:worksWith t:emp/{mate} .
source    SELECT id, mate FROM colleagues

mappingId sells
target    t:emp/{id} t:sells t:prod/{p} .
source    SELECT id, p FROM sells

mappingId likes
target    t:emp/{id} t:likes t:prod/{p} .
source    SELECT id, p FROM likes

mappingId likes2
target    t:emp/{id} t:likes t:emp/{mate} .
source    SELECT id, mate FROM fans
`)
}

// prunedWalk walks cq's mapping candidates twice: over the unpruned lists
// and over the lists pruneCandidatesStatic leaves. Pruning is sound only if
// both walks emit the same arms with the same SQL; prunedWalk fails the
// test otherwise. It returns the stats of both walks (the pruned one stays
// zero when pruning proves the CQ empty) and the number of candidates
// pruning deleted.
func prunedWalk(t *testing.T, cq *rewrite.CQ, mp *r2rml.Mapping, cons *analyze.Constraints) (full, pruned cqStats, dropped int, empty bool) {
	t.Helper()
	cands := make([][]candidate, len(cq.Atoms))
	kept := make([][]candidate, len(cq.Atoms))
	for i, atom := range cq.Atoms {
		cands[i] = candidatesFor(atom, mp)
		kept[i] = slices.Clone(cands[i])
	}
	fullArms, full, _, err := walkCandidates(cq, cands, nil, cons)
	if err != nil {
		t.Fatal(err)
	}
	dropped, empty = pruneCandidatesStatic(cq, kept, cons)
	var keptSQL []string
	if !empty {
		keptArms, st, _, err := walkCandidates(cq, kept, nil, cons)
		if err != nil {
			t.Fatal(err)
		}
		pruned = st
		for _, a := range keptArms {
			keptSQL = append(keptSQL, a.String())
		}
	}
	var fullSQL []string
	for _, a := range fullArms {
		fullSQL = append(fullSQL, a.String())
	}
	if !slices.Equal(fullSQL, keptSQL) {
		t.Fatalf("pruning changed the arms:\nunpruned: %q\npruned:   %q", fullSQL, keptSQL)
	}
	return full, pruned, dropped, empty
}

func TestStaticPruneArcConsistency(t *testing.T) {
	// ?y is sold (always t:prod/{p}) and likes-linked; the likes2 candidate
	// produces t:emp/{mate} for ?y, which can never unify with any sells
	// candidate — arc consistency deletes it before the walk.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			propAtom("likes", vt("z"), vt("y")),
		},
		Answer: []string{"x", "y"},
	}
	full, pruned, dropped, empty := prunedWalk(t, cq, disjointTemplateMapping(), nil)
	if dropped == 0 || empty {
		t.Fatalf("expected statically pruned candidates and a non-empty CQ, got %d dropped, empty=%v", dropped, empty)
	}
	// The walk-time prune counter shrinks accordingly: the work moved from
	// enumeration to static analysis.
	if pruned.pruned >= full.pruned {
		t.Fatalf("static pruning did not reduce walk-time pruning: %d vs %d", pruned.pruned, full.pruned)
	}
	// Candidates with a partner for every shared variable all stay: both
	// likes mappings join worksWith on the emp/{id} subject.
	viable := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("likes", vt("x"), vt("y")),
			propAtom("worksWith", vt("x"), vt("z")),
		},
		Answer: []string{"x", "y", "z"},
	}
	if _, _, dropped, empty := prunedWalk(t, viable, disjointTemplateMapping(), nil); dropped != 0 || empty {
		t.Fatalf("viable candidates pruned: %d dropped, empty=%v", dropped, empty)
	}
}

func TestStaticPruneEmptyCQ(t *testing.T) {
	// ?y both sold (prod template) and worksWith-linked (emp template):
	// every candidate pair is template-disjoint, so the CQ is statically
	// empty and no arm is emitted.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			propAtom("worksWith", vt("z"), vt("y")),
		},
		Answer: []string{"x", "y"},
	}
	if _, _, dropped, empty := prunedWalk(t, cq, disjointTemplateMapping(), nil); !empty || dropped == 0 {
		t.Fatalf("expected a statically empty CQ, got %d dropped, empty=%v", dropped, empty)
	}
	un, err := Unfold(rewrite.UCQ{cq}, disjointTemplateMapping(), nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if un.Stmt != nil || un.Arms != 0 || un.StaticPrunedCands == 0 {
		t.Fatalf("expected statically empty result, got %d arms, %d pruned", un.Arms, un.StaticPrunedCands)
	}
}

func TestStaticPruneConstantMismatch(t *testing.T) {
	// A constant subject outside the emp/{id} template shape empties the
	// atom's candidate list without entering the walk.
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{propAtom("sells", ct(rdf.NewIRI("http://t/prod/9")), vt("y"))},
		Answer: []string{"y"},
	}
	if _, _, dropped, empty := prunedWalk(t, cq, disjointTemplateMapping(), nil); !empty || dropped == 0 {
		t.Fatalf("expected constant-mismatch prune, got %d dropped, empty=%v", dropped, empty)
	}
}
