package rewrite

import (
	"fmt"
	"sort"

	"npdbench/internal/owl"
)

// TreeWitness records a foldable query subtree: an existentially quantified
// variable all of whose atoms can be matched inside the anonymous part of
// the canonical model generated by axioms A ⊑ ∃R.B.
//
// The implementation covers depth-1 witnesses (a single folded variable
// hanging off one root term), which is the shape occurring in the NPD
// query set; deeper witnesses would be found by iterating the folding, and
// the rewriter conservatively leaves them unfolded.
type TreeWitness struct {
	// Var is the folded variable.
	Var string
	// Root is the unique term adjacent to Var.
	Root Term
	// AtomIdx lists the indexes of the atoms consumed by the witness.
	AtomIdx []int
	// Generators lists the concepts D such that D(Root) entails the folded
	// atoms via some axiom D ⊑ ∃R.B; each is an alternative replacement.
	Generators []owl.Concept
}

func (tw TreeWitness) String() string {
	return fmt.Sprintf("tw(?%s via %s, %d atoms, %d generators)",
		tw.Var, tw.Root, len(tw.AtomIdx), len(tw.Generators))
}

// findTreeWitnesses detects depth-1 tree witnesses in cq. Variables in
// prot (answer variables, filter variables) can never be folded, because
// anonymous individuals cannot be returned or compared.
func (rw *Rewriter) findTreeWitnesses(cq *CQ, prot map[string]bool) []TreeWitness {
	var out []TreeWitness
	for _, v := range cq.Vars() {
		if prot[v] {
			continue
		}
		tw, ok := rw.tryFold(cq, v)
		if ok {
			out = append(out, tw)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// tryFold checks whether variable v is foldable and, if so, computes its
// witness.
func (rw *Rewriter) tryFold(cq *CQ, v string) (TreeWitness, bool) {
	var edges []foldEdge
	for i, a := range cq.Atoms {
		sIsV := a.S.IsVar() && a.S.Var == v
		oIsV := a.Kind != ClassAtom && a.O.IsVar() && a.O.Var == v
		if !sIsV && !oIsV {
			continue
		}
		switch a.Kind {
		case ClassAtom:
			edges = append(edges, foldEdge{idx: i, classOf: true, class: a.Pred})
		case DataPropAtom:
			// data property edges: v can only appear as subject to be a
			// foldable node (anonymous individuals have no data values in
			// QL canonical models generated by ∃R.B axioms) — reject.
			return TreeWitness{}, false
		case ObjPropAtom:
			if sIsV && oIsV {
				return TreeWitness{}, false // self loop
			}
			if oIsV {
				edges = append(edges, foldEdge{idx: i, prop: a.Pred, toV: true, other: a.S})
			} else {
				edges = append(edges, foldEdge{idx: i, prop: a.Pred, toV: false, other: a.O})
			}
		}
	}
	// Need at least one property edge; determine the unique root.
	var root Term
	haveRoot := false
	propEdges := 0
	for _, e := range edges {
		if e.classOf {
			continue
		}
		propEdges++
		if !haveRoot {
			root, haveRoot = e.other, true
			continue
		}
		if e.other.String() != root.String() {
			return TreeWitness{}, false // v connects two different terms
		}
	}
	if propEdges == 0 {
		return TreeWitness{}, false
	}
	// The root itself must not be the folded variable's own fresh node and
	// must not be v.
	if root.IsVar() && root.Var == v {
		return TreeWitness{}, false
	}

	// Try every existential axiom as the generator of v.
	var generators []owl.Concept
	seen := map[string]bool{}
	for _, ax := range rw.Onto.Existentials {
		if rw.axiomCovers(ax, edges) {
			k := ax.Sub.String()
			if !seen[k] {
				seen[k] = true
				generators = append(generators, ax.Sub)
			}
		}
	}
	if len(generators) == 0 {
		return TreeWitness{}, false
	}
	tw := TreeWitness{Var: v, Root: root, Generators: generators}
	for _, e := range edges {
		tw.AtomIdx = append(tw.AtomIdx, e.idx)
	}
	sort.Ints(tw.AtomIdx)
	return tw, true
}

// axiomCovers reports whether ax (D ⊑ ∃R.B, direction per ax.Inverse)
// entails all the folded edges: every property edge P with direction d must
// subsume the generated edge, and every class atom C(v) must subsume the
// filler B.
// foldEdge describes one atom incident to a fold candidate variable.
type foldEdge struct {
	idx     int
	prop    string
	toV     bool // true when the atom is P(root, v); false for P(v, root)
	classOf bool // class atom C(v)
	class   string
	other   Term
}

func (rw *Rewriter) axiomCovers(ax owl.ExistAxiom, edges []foldEdge) bool {
	gen := owl.PropRef{Prop: ax.Prop, Inverse: ax.Inverse}
	for _, e := range edges {
		if e.classOf {
			// need B ⊑ C; the anonymous individual is an instance of the
			// filler B (and of everything B is subsumed by).
			if ax.Filler == "" {
				return false
			}
			if !rw.Onto.Subsumes(owl.NamedConcept(e.class), owl.NamedConcept(ax.Filler)) {
				return false
			}
			continue
		}
		// Edge root --P--> v requires R ⊑ P; edge v --P--> root requires
		// R⁻ ⊑ P.
		want := gen
		if !e.toV {
			want = gen.Inv()
		}
		subs := rw.Onto.SubPropertiesOf(owl.PropRef{Prop: e.prop})
		found := false
		for _, s := range subs {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// applyTreeWitnesses produces the UCQ: the original CQ plus, for every
// subset of pairwise-disjoint witnesses and every generator choice, the CQ
// with the folded atoms replaced by the generator condition on the root.
func (rw *Rewriter) applyTreeWitnesses(cq *CQ, tws []TreeWitness) UCQ {
	out := UCQ{cq.Clone()}
	n := len(tws)
	if n == 0 {
		return out
	}
	if n > 16 {
		n = 16 // subset enumeration guard; NPD queries have ≤ 3 witnesses
	}
	freshSeq := 0
	fresh := func() string {
		freshSeq++
		return fmt.Sprintf("_tw%d", freshSeq)
	}
	for mask := 1; mask < (1 << n); mask++ {
		var chosen []TreeWitness
		used := map[int]bool{}
		ok := true
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for _, idx := range tws[i].AtomIdx {
				if used[idx] {
					ok = false
					break
				}
				used[idx] = true
			}
			if !ok {
				break
			}
			chosen = append(chosen, tws[i])
		}
		if !ok {
			continue
		}
		// enumerate generator choices (cartesian product)
		var emit func(i int, picks []owl.Concept)
		emit = func(i int, picks []owl.Concept) {
			if i == len(chosen) {
				out = append(out, foldCQ(cq, chosen, picks, fresh))
				return
			}
			for _, g := range chosen[i].Generators {
				emit(i+1, append(picks, g))
			}
		}
		emit(0, nil)
	}
	return dedupeCQs(out)
}

// foldCQ replaces each chosen witness's atoms by its picked generator
// condition on the witness root.
func foldCQ(cq *CQ, chosen []TreeWitness, picks []owl.Concept, fresh func() string) *CQ {
	drop := map[int]bool{}
	for _, tw := range chosen {
		for _, idx := range tw.AtomIdx {
			drop[idx] = true
		}
	}
	nq := &CQ{Answer: append([]string{}, cq.Answer...)}
	for i, a := range cq.Atoms {
		if !drop[i] {
			nq.Atoms = append(nq.Atoms, a)
		}
	}
	for i, tw := range chosen {
		g := picks[i]
		switch {
		case g.IsNamed():
			nq.Atoms = append(nq.Atoms, Atom{Kind: ClassAtom, Pred: g.Class, S: tw.Root})
		case g.IsData:
			nq.Atoms = append(nq.Atoms, Atom{Kind: DataPropAtom, Pred: g.Prop, S: tw.Root, O: Term{Var: fresh()}})
		case g.Inverse:
			nq.Atoms = append(nq.Atoms, Atom{Kind: ObjPropAtom, Pred: g.Prop, S: Term{Var: fresh()}, O: tw.Root})
		default:
			nq.Atoms = append(nq.Atoms, Atom{Kind: ObjPropAtom, Pred: g.Prop, S: tw.Root, O: Term{Var: fresh()}})
		}
	}
	return nq
}
