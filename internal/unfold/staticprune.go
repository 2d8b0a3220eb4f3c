package unfold

import (
	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rewrite"
)

// Static candidate pruning, run by every unfolding: before the
// combinatorial candidate walk, delete mapping-assertion candidates that
// provably cannot participate in any viable combination. Two sources of
// proof:
//
//   - own-constant incompatibility: the candidate's term map cannot
//     produce the atom's constant term;
//   - arc inconsistency: some other atom shares a variable with this
//     atom, and *every* candidate of that atom has a term map for the
//     shared variable that is provably disjoint from this candidate's
//     (IRI templates that cannot expand to a common string, given the
//     value classes of their columns; IRI vs literal positions). Since a
//     viable combination must pick one candidate per atom, no combination
//     containing this candidate can unify — exactly the rows the walk
//     would enumerate and discard.
//
// The deletion is sound (the walk's compatibleWithPicks would reject every
// combination involving a deleted candidate) and shrinks the walk's
// candidate product multiplicatively. Iterated to a fixpoint, it also
// detects statically empty CQs (some atom loses all candidates).

// varMaps lists the term maps candidate c contributes for variable v in
// atom a (subject and/or object position).
func varMaps(a rewrite.Atom, c candidate, v string) []r2rml.TermMap {
	var out []r2rml.TermMap
	if a.S.IsVar() && a.S.Var == v {
		out = append(out, c.subject)
	}
	if !c.isClass && a.O.IsVar() && a.O.Var == v {
		out = append(out, c.object)
	}
	return out
}

// candidatesArcCompatible reports whether candidates c (of atom i) and d
// (of atom j) have structurally unifiable term maps for every variable the
// two atoms share.
func candidatesArcCompatible(ai, aj rewrite.Atom, c, d candidate, shared []string, cons *analyze.Constraints) bool {
	for _, v := range shared {
		for _, cm := range varMaps(ai, c, v) {
			for _, dm := range varMaps(aj, d, v) {
				if !mapsCompatible(cons, c.m, cm, d.m, dm) {
					return false
				}
			}
		}
	}
	return true
}

// sharedVars returns the variables occurring in both atoms.
func sharedVars(a, b rewrite.Atom) []string {
	var out []string
	for _, v := range a.Vars() {
		for _, w := range b.Vars() {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// pruneCandidatesStatic runs the static candidate deletion to fixpoint.
// It returns the number of candidates deleted and whether some atom ended
// up with no candidate (the CQ is statically empty).
func pruneCandidatesStatic(cq *rewrite.CQ, cands [][]candidate, cons *analyze.Constraints) (dropped int, empty bool) {
	n := len(cq.Atoms)
	// Own-constant check once up front (cheapest proof).
	for i, atom := range cq.Atoms {
		kept := cands[i][:0]
		for _, c := range cands[i] {
			ok := true
			if !atom.S.IsVar() && !constantCompatible(c.subject, atom.S.Const) {
				ok = false
			}
			if ok && !c.isClass && !atom.O.IsVar() && !constantCompatible(c.object, atom.O.Const) {
				ok = false
			}
			if ok {
				kept = append(kept, c)
			} else {
				dropped++
			}
		}
		cands[i] = kept
		if len(cands[i]) == 0 {
			return dropped, true
		}
	}
	// Arc consistency to fixpoint.
	shared := make([][][]string, n)
	for i := 0; i < n; i++ {
		shared[i] = make([][]string, n)
		for j := 0; j < n; j++ {
			if i != j {
				shared[i][j] = sharedVars(cq.Atoms[i], cq.Atoms[j])
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			kept := cands[i][:0]
			for _, c := range cands[i] {
				supported := true
				for j := 0; j < n && supported; j++ {
					if i == j || len(shared[i][j]) == 0 {
						continue
					}
					anyPartner := false
					for _, d := range cands[j] {
						if candidatesArcCompatible(cq.Atoms[i], cq.Atoms[j], c, d, shared[i][j], cons) {
							anyPartner = true
							break
						}
					}
					if !anyPartner {
						supported = false
					}
				}
				if supported {
					kept = append(kept, c)
				} else {
					dropped++
					changed = true
				}
			}
			cands[i] = kept
			if len(cands[i]) == 0 {
				return dropped, true
			}
		}
	}
	return dropped, false
}
