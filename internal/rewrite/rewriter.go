package rewrite

import (
	"fmt"
	"sort"

	"npdbench/internal/owl"
)

// Rewriter turns a CQ into the UCQ embedding the TBox inferences.
type Rewriter struct {
	Onto *owl.Ontology
	// ExpandHierarchy enables the classic per-atom UCQ expansion. Engines
	// using T-mappings (the default in Ontop and in this reproduction)
	// leave it off, because the hierarchy closure already lives in the
	// saturated mapping.
	ExpandHierarchy bool
	// Existential enables tree-witness rewriting (the paper evaluates
	// systems with this both on and off).
	Existential bool
	// MaxCQs caps the size of the produced UCQ (0 = default 4096); the
	// exponential blow-up the paper warns about is thereby bounded.
	MaxCQs int
}

// Result carries the rewritten UCQ and the quality metrics of the paper's
// Table 1 (Simplicity R-Query: #CQs in the rewriting, #tree witnesses).
type Result struct {
	UCQ           UCQ
	TreeWitnesses int
	// CQCount is the number of CQs in the rewriting (the "73 intermediate
	// queries" measure quoted for q6 in the paper).
	CQCount int
	// Truncated reports that MaxCQs was hit: the UCQ lacks disjuncts, so
	// its answers are incomplete.
	Truncated bool
	// EntailedAtoms counts the atoms dropEntailed removed, summed over the
	// CQs of the tree-witness rewriting.
	EntailedAtoms int
}

// CQLimit returns the effective MaxCQs cap.
func (rw *Rewriter) CQLimit() int {
	if rw.MaxCQs > 0 {
		return rw.MaxCQs
	}
	return 4096
}

// Rewrite computes the UCQ rewriting of cq. protected lists variables that
// must not be folded into tree witnesses (answer variables are always
// protected; callers add filter/optional variables).
func (rw *Rewriter) Rewrite(cq *CQ, protected []string) (*Result, error) {
	res := &Result{}
	base := UCQ{cq.Clone()}
	prot := protectedSet(cq, protected)

	if rw.Existential {
		tws := rw.findTreeWitnesses(cq, prot)
		res.TreeWitnesses = len(tws)
		base = rw.applyTreeWitnesses(cq, tws)
	}
	for _, q := range base {
		res.EntailedAtoms += rw.dropEntailed(q, prot)
	}

	if rw.ExpandHierarchy {
		var expanded UCQ
		truncated := false
		for _, q := range base {
			ex, tr := rw.expandHierarchy(q, rw.CQLimit()-len(expanded))
			expanded = append(expanded, ex...)
			truncated = truncated || tr
			if len(expanded) >= rw.CQLimit() {
				truncated = true
				break
			}
		}
		res.Truncated = truncated
		base = expanded
	}

	base = dedupeCQs(base)
	base = minimizeUCQ(base)
	res.UCQ = base
	res.CQCount = len(base)
	if res.CQCount == 0 {
		return nil, fmt.Errorf("rewrite: empty rewriting")
	}
	return res, nil
}

// AtomAlternatives returns the atoms entailing a (including a itself),
// using fresh variable names drawn from seq. Triple-store engines use it
// to expand each query atom into a union independently — polynomial in the
// query size, unlike the cross-product UCQ expansion.
func (rw *Rewriter) AtomAlternatives(a Atom, seq *int) []Atom {
	return rw.atomAlternatives(a, func() string {
		*seq++
		return fmt.Sprintf("_ha%d", *seq)
	})
}

// ---- hierarchy expansion ----

// atomAlternatives returns the atoms entailing a (including a itself).
func (rw *Rewriter) atomAlternatives(a Atom, fresh func() string) []Atom {
	switch a.Kind {
	case ClassAtom:
		subs := rw.Onto.SubConceptsOf(owl.NamedConcept(a.Pred))
		out := make([]Atom, 0, len(subs))
		for _, c := range subs {
			switch {
			case c.IsNamed():
				out = append(out, Atom{Kind: ClassAtom, Pred: c.Class, S: a.S})
			case c.IsData:
				out = append(out, Atom{Kind: DataPropAtom, Pred: c.Prop, S: a.S, O: Term{Var: fresh()}})
			case c.Inverse:
				out = append(out, Atom{Kind: ObjPropAtom, Pred: c.Prop, S: Term{Var: fresh()}, O: a.S})
			default:
				out = append(out, Atom{Kind: ObjPropAtom, Pred: c.Prop, S: a.S, O: Term{Var: fresh()}})
			}
		}
		return out
	case ObjPropAtom:
		subs := rw.Onto.SubPropertiesOf(owl.PropRef{Prop: a.Pred})
		out := make([]Atom, 0, len(subs))
		for _, p := range subs {
			if p.Inverse {
				out = append(out, Atom{Kind: ObjPropAtom, Pred: p.Prop, S: a.O, O: a.S})
			} else {
				out = append(out, Atom{Kind: ObjPropAtom, Pred: p.Prop, S: a.S, O: a.O})
			}
		}
		return out
	case DataPropAtom:
		subs := rw.Onto.SubDataPropertiesOf(a.Pred)
		out := make([]Atom, 0, len(subs))
		for _, p := range subs {
			out = append(out, Atom{Kind: DataPropAtom, Pred: p, S: a.S, O: a.O})
		}
		return out
	}
	return []Atom{a}
}

// expandHierarchy produces the cartesian expansion of the CQ's atoms,
// capped at limit CQs.
func (rw *Rewriter) expandHierarchy(cq *CQ, limit int) (UCQ, bool) {
	if limit <= 0 {
		return nil, true
	}
	freshSeq := 0
	fresh := func() string {
		freshSeq++
		return fmt.Sprintf("_h%d", freshSeq)
	}
	alts := make([][]Atom, len(cq.Atoms))
	for i, a := range cq.Atoms {
		alts[i] = rw.atomAlternatives(a, fresh)
	}
	out := UCQ{}
	truncated := false
	var build func(i int, acc []Atom)
	build = func(i int, acc []Atom) {
		if len(out) >= limit {
			truncated = true
			return
		}
		if i == len(alts) {
			out = append(out, &CQ{Atoms: append([]Atom{}, acc...), Answer: cq.Answer})
			return
		}
		for _, a := range alts[i] {
			build(i+1, append(acc, a))
			if truncated {
				return
			}
		}
	}
	build(0, nil)
	return out, truncated
}

// protectedSet returns the variables of cq that must be bound to real
// values: the answer variables plus the caller's protected ones.
func protectedSet(cq *CQ, protected []string) map[string]bool {
	prot := make(map[string]bool, len(protected)+len(cq.Answer))
	for _, v := range protected {
		prot[v] = true
	}
	for _, v := range cq.Answer {
		prot[v] = true
	}
	return prot
}

// skipDropEntailed turns dropEntailed off. It is no engine option: only
// the differential soundness test sets it, to compare answers with the
// pass on and off.
var skipDropEntailed bool

// dropEntailed removes from q, one atom at a time and to a fixpoint, every
// atom that the rest of q entails under the TBox, and returns how many it
// removed. No data is read. The concepts the rest of q asserts of a term t
// come from the other atoms on t: B(t) gives B, R(t,_) gives ∃R, R(_,t)
// gives ∃R⁻ and U(t,_) gives ∃U. An atom goes when one of them is
// subsumed by the concept the atom asserts:
//
//   - a class atom A(t) asserts A, which covers domain, range and
//     subclass entailment;
//   - a property atom whose other end is a free variable (unprotected and
//     occurring nowhere else) asserts ∃R, ∃R⁻ or ∃U of its bound end. That
//     is existential reasoning, so it runs only with Existential on.
//
// Class atoms on unprotected variables go first, then free-ended property
// atoms, then class atoms on protected terms. When A ≡ ∃R either atom of
// A(p) ∧ R(p,_v) could go; keeping A(p) makes the CQ equal the tree-witness
// fold of R(p,_v), which also yields A(p), so minimizeUCQ keeps one
// disjunct where the other order would keep two.
//
// Dropping a free-ended atom cannot change multiplicities: the engine
// deduplicates a BGP's solutions over its answer variables, and only the
// parser's blank nodes are non-answer variables.
func (rw *Rewriter) dropEntailed(q *CQ, prot map[string]bool) int {
	if skipDropEntailed {
		return 0
	}
	dropped := 0
	for {
		best, bestPhase := -1, 0
		for i := range q.Atoms {
			t, sup, phase := rw.entailCandidate(q, i, prot)
			if phase == 0 || (best >= 0 && phase >= bestPhase) {
				continue
			}
			if rw.entailedOn(q, i, t, sup) {
				best, bestPhase = i, phase
			}
		}
		if best < 0 {
			return dropped
		}
		q.Atoms = append(q.Atoms[:best], q.Atoms[best+1:]...)
		dropped++
	}
}

// entailCandidate returns the term t and concept sup that atom i asserts
// as far as dropEntailed is concerned, with its removal phase (1 to 3,
// earlier first); phase 0 means the atom is never dropped.
func (rw *Rewriter) entailCandidate(q *CQ, i int, prot map[string]bool) (t Term, sup owl.Concept, phase int) {
	a := q.Atoms[i]
	free := func(x Term) bool { return x.IsVar() && !prot[x.Var] && occurrences(q, x.Var) == 1 }
	switch {
	case a.Kind == ClassAtom && a.S.IsVar() && !prot[a.S.Var]:
		return a.S, owl.NamedConcept(a.Pred), 1
	case a.Kind == ClassAtom:
		return a.S, owl.NamedConcept(a.Pred), 3
	case !rw.Existential:
		return Term{}, owl.Concept{}, 0
	case a.Kind == DataPropAtom && free(a.O):
		return a.S, owl.SomeData(a.Pred), 2
	case a.Kind == ObjPropAtom && free(a.O):
		return a.S, owl.SomeValues(a.Pred, false), 2
	case a.Kind == ObjPropAtom && free(a.S):
		return a.O, owl.SomeValues(a.Pred, true), 2
	}
	return Term{}, owl.Concept{}, 0
}

// occurrences counts the argument positions of q holding variable v.
func occurrences(q *CQ, v string) int {
	n := 0
	for _, a := range q.Atoms {
		for _, x := range a.Vars() {
			if x == v {
				n++
			}
		}
	}
	return n
}

// entailedOn reports whether an atom of q other than atom skip asserts of
// t a concept that sup subsumes.
func (rw *Rewriter) entailedOn(q *CQ, skip int, t Term, sup owl.Concept) bool {
	for j, b := range q.Atoms {
		if j == skip {
			continue
		}
		switch {
		case b.Kind == ClassAtom && b.S == t && rw.Onto.Subsumes(sup, owl.NamedConcept(b.Pred)),
			b.Kind == DataPropAtom && b.S == t && rw.Onto.Subsumes(sup, owl.SomeData(b.Pred)),
			b.Kind == ObjPropAtom && b.S == t && rw.Onto.Subsumes(sup, owl.SomeValues(b.Pred, false)),
			b.Kind == ObjPropAtom && b.O == t && rw.Onto.Subsumes(sup, owl.SomeValues(b.Pred, true)):
			return true
		}
	}
	return false
}

// minimizeUCQ removes CQs subsumed by another disjunct: when cq2's atoms
// are a subset of cq1's (same answer variables), every answer of cq1 is an
// answer of cq2, so cq1 is redundant. This identity-homomorphism case is
// exactly what makes tree-witness rewritings tractable downstream (the
// paper's "semantic query optimisation in the SPARQL-to-SQL translation"):
// the partially-folded disjuncts of a tree-witness expansion are all
// subsumed by the fully-folded one whenever the generator atoms already
// occur in the query. dropEntailed runs first and widens that case: once
// every CQ has lost the atoms the TBox entails from its other atoms, a
// folded and an unfolded disjunct often shrink to the same core (q6's
// do), and the subset test here removes the copies.
func minimizeUCQ(u UCQ) UCQ {
	atomSets := make([]map[string]bool, len(u))
	for i, q := range u {
		s := make(map[string]bool, len(q.Atoms))
		for _, a := range q.Atoms {
			s[a.String()] = true
		}
		atomSets[i] = s
	}
	drop := make([]bool, len(u))
	for i := range u {
		if drop[i] {
			continue
		}
		for j := range u {
			if i == j || drop[j] {
				continue
			}
			// drop i when j ⊆ i strictly, or j == i with j earlier.
			if isSubset(atomSets[j], atomSets[i]) &&
				(len(atomSets[j]) < len(atomSets[i]) || j < i) {
				drop[i] = true
				break
			}
		}
	}
	out := make(UCQ, 0, len(u))
	for i, q := range u {
		if !drop[i] {
			out = append(out, q)
		}
	}
	return out
}

func isSubset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// dedupeCQs removes syntactically identical CQs.
func dedupeCQs(u UCQ) UCQ {
	seen := map[string]bool{}
	out := make(UCQ, 0, len(u))
	for _, q := range u {
		q.Normalize()
		k := canonicalKey(q)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, q)
	}
	return out
}

func canonicalKey(q *CQ) string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}
