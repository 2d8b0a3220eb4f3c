package unfold

import (
	"strings"

	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

// Static candidate pruning (the planck payoff inside the unfolder): before
// the combinatorial candidate walk, delete mapping-assertion candidates
// that provably cannot participate in any viable combination. Two sources
// of proof:
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

// contradictoryConds proves that a conjunction of arm conditions is
// unsatisfiable: two equality constraints pinning the same column to
// different constants (hoisted from different fragment views during
// key-based self-join merging), an equality contradicting a disequality,
// or an equality lying outside a range bound on the same column. Only
// comparisons between a column reference and a literal participate; a
// comparison whose values are not mutually comparable is ignored.
func contradictoryConds(conds []sqldb.Expr) bool {
	type colBounds struct {
		eq    *sqldb.Value
		nes   []sqldb.Value
		lo    *sqldb.Value
		loStr bool
		hi    *sqldb.Value
		hiStr bool
	}
	bounds := map[string]*colBounds{}
	at := func(c *sqldb.ColRef) *colBounds {
		k := strings.ToLower(c.Table + "." + c.Name)
		b := bounds[k]
		if b == nil {
			b = &colBounds{}
			bounds[k] = b
		}
		return b
	}
	cmp := func(a, b sqldb.Value) (int, bool) {
		c, err := sqldb.Compare(a, b)
		return c, err == nil
	}
	for _, cond := range conds {
		bo, ok := cond.(*sqldb.BinOp)
		if !ok {
			continue
		}
		col, okc := bo.L.(*sqldb.ColRef)
		lit, okl := bo.R.(*sqldb.Lit)
		op := bo.Op
		if !okc || !okl {
			// literal on the left: flip
			if lit2, okl2 := bo.L.(*sqldb.Lit); okl2 {
				if col2, okc2 := bo.R.(*sqldb.ColRef); okc2 {
					col, lit = col2, lit2
					switch op {
					case sqldb.OpLt:
						op = sqldb.OpGt
					case sqldb.OpLe:
						op = sqldb.OpGe
					case sqldb.OpGt:
						op = sqldb.OpLt
					case sqldb.OpGe:
						op = sqldb.OpLe
					}
					okc, okl = true, true
				}
			}
			if !okc || !okl {
				continue
			}
		}
		if lit.Val.IsNull() {
			continue
		}
		b := at(col)
		v := lit.Val
		switch op {
		case sqldb.OpEq:
			if b.eq != nil {
				if c, comparable := cmp(*b.eq, v); comparable && c != 0 {
					return true
				}
			} else {
				b.eq = &v
			}
		case sqldb.OpNe:
			b.nes = append(b.nes, v)
		case sqldb.OpLt, sqldb.OpLe:
			if b.hi == nil {
				b.hi, b.hiStr = &v, op == sqldb.OpLt
			} else if c, comparable := cmp(v, *b.hi); comparable && (c < 0 || (c == 0 && op == sqldb.OpLt)) {
				b.hi, b.hiStr = &v, op == sqldb.OpLt
			}
		case sqldb.OpGt, sqldb.OpGe:
			if b.lo == nil {
				b.lo, b.loStr = &v, op == sqldb.OpGt
			} else if c, comparable := cmp(v, *b.lo); comparable && (c > 0 || (c == 0 && op == sqldb.OpGt)) {
				b.lo, b.loStr = &v, op == sqldb.OpGt
			}
		}
	}
	for _, b := range bounds {
		if b.eq != nil {
			for _, ne := range b.nes {
				if c, comparable := cmp(*b.eq, ne); comparable && c == 0 {
					return true
				}
			}
			if b.lo != nil {
				if c, comparable := cmp(*b.eq, *b.lo); comparable && (c < 0 || (c == 0 && b.loStr)) {
					return true
				}
			}
			if b.hi != nil {
				if c, comparable := cmp(*b.eq, *b.hi); comparable && (c > 0 || (c == 0 && b.hiStr)) {
					return true
				}
			}
		}
		if b.lo != nil && b.hi != nil {
			if c, comparable := cmp(*b.lo, *b.hi); comparable && (c > 0 || (c == 0 && (b.loStr || b.hiStr))) {
				return true
			}
		}
	}
	return false
}
