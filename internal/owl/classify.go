package owl

import "sort"

// classification caches the reflexive-transitive closure of the concept and
// property hierarchies, the pieces every query-rewriting step consumes.
type classification struct {
	// subConcepts[c] is the set of basic concepts subsumed by c (including
	// c itself).
	subConcepts map[Concept]map[Concept]bool
	// superConcepts is the converse relation.
	superConcepts map[Concept]map[Concept]bool
	// subProps[p] is the set of (possibly inverted) object properties
	// subsumed by p, including p.
	subProps map[PropRef]map[PropRef]bool
	// subDataProps[u] similarly for data properties (no inverses).
	subDataProps map[string]map[string]bool
}

func (o *Ontology) classify() *classification {
	if o.cls != nil {
		return o.cls
	}
	c := &classification{
		subConcepts:   make(map[Concept]map[Concept]bool),
		superConcepts: make(map[Concept]map[Concept]bool),
		subProps:      make(map[PropRef]map[PropRef]bool),
		subDataProps:  make(map[string]map[string]bool),
	}

	// --- property hierarchy (with inverses) ---
	// edges: sub -> sup
	pEdges := make(map[PropRef][]PropRef)
	addPEdge := func(sub, sup PropRef) {
		pEdges[sub] = append(pEdges[sub], sup)
		pEdges[sub.Inv()] = append(pEdges[sub.Inv()], sup.Inv())
	}
	for _, ax := range o.SubProps {
		if ax.IsData {
			continue
		}
		addPEdge(ax.Sub, ax.Sup)
	}
	for _, inv := range o.Inverses {
		p := PropRef{Prop: inv[0]}
		q := PropRef{Prop: inv[1]}
		addPEdge(p, q.Inv())
		addPEdge(q.Inv(), p)
	}
	// closure per declared property (both orientations)
	for prop := range o.objProps {
		for _, orient := range []bool{false, true} {
			root := PropRef{Prop: prop, Inverse: orient}
			c.subProps[root] = reachableInverse(pEdges, root)
		}
	}

	// --- data property hierarchy ---
	dEdges := make(map[string][]string)
	for _, ax := range o.SubProps {
		if ax.IsData {
			dEdges[ax.Sub.Prop] = append(dEdges[ax.Sub.Prop], ax.Sup.Prop)
		}
	}
	for prop := range o.dataProps {
		c.subDataProps[prop] = reachableInverseStr(dEdges, prop)
	}

	// --- concept hierarchy ---
	// Direct edges from subclass axioms...
	cEdges := make(map[Concept][]Concept) // sub -> sups
	for _, ax := range o.SubClasses {
		cEdges[ax.Sub] = append(cEdges[ax.Sub], ax.Sup)
	}
	// ...plus A ⊑ ∃R.B implies A ⊑ ∃R...
	for _, ax := range o.Existentials {
		cEdges[ax.Sub] = append(cEdges[ax.Sub], SomeValues(ax.Prop, ax.Inverse))
	}
	// ...plus R ⊑ S implies ∃R ⊑ ∃S and ∃R⁻ ⊑ ∃S⁻ (in closure form, via
	// the property hierarchy).
	for prop := range o.objProps {
		for _, orient := range []bool{false, true} {
			p := PropRef{Prop: prop, Inverse: orient}
			for sub := range c.subProps[p] {
				if sub == p {
					continue
				}
				cEdges[SomeValues(sub.Prop, sub.Inverse)] =
					append(cEdges[SomeValues(sub.Prop, sub.Inverse)], SomeValues(p.Prop, p.Inverse))
			}
		}
	}
	// ...plus U ⊑ V for data props implies ∃U ⊑ ∃V.
	for prop := range o.dataProps {
		for sub := range c.subDataProps[prop] {
			if sub == prop {
				continue
			}
			cEdges[SomeData(sub)] = append(cEdges[SomeData(sub)], SomeData(prop))
		}
	}

	// All basic concepts appearing anywhere.
	all := make(map[Concept]bool)
	for cl := range o.classes {
		all[NamedConcept(cl)] = true
	}
	for p := range o.objProps {
		all[SomeValues(p, false)] = true
		all[SomeValues(p, true)] = true
	}
	for p := range o.dataProps {
		all[SomeData(p)] = true
	}
	for sub, sups := range cEdges {
		all[sub] = true
		for _, s := range sups {
			all[s] = true
		}
	}

	// Reverse edges for the sub-concepts relation: sup -> subs.
	rev := make(map[Concept][]Concept)
	for sub, sups := range cEdges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	for concept := range all {
		c.subConcepts[concept] = reachableConcepts(rev, concept)
		c.superConcepts[concept] = reachableConcepts(cEdges, concept)
	}

	o.cls = c
	return c
}

func reachableConcepts(edges map[Concept][]Concept, start Concept) map[Concept]bool {
	seen := map[Concept]bool{start: true}
	stack := []Concept{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range edges[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

func reachableInverse(edges map[PropRef][]PropRef, root PropRef) map[PropRef]bool {
	// compute all p with p ⊑* root: reverse reachability.
	rev := make(map[PropRef][]PropRef)
	for sub, sups := range edges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	seen := map[PropRef]bool{root: true}
	stack := []PropRef{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range rev[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

func reachableInverseStr(edges map[string][]string, root string) map[string]bool {
	rev := make(map[string][]string)
	for sub, sups := range edges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	seen := map[string]bool{root: true}
	stack := []string{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range rev[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// SubConceptsOf returns all basic concepts subsumed by c (including c),
// sorted deterministically.
func (o *Ontology) SubConceptsOf(c Concept) []Concept {
	m := o.classify().subConcepts[c]
	if m == nil {
		return []Concept{c}
	}
	return sortConcepts(m)
}

// SuperConceptsOf returns all basic concepts subsuming c (including c).
func (o *Ontology) SuperConceptsOf(c Concept) []Concept {
	m := o.classify().superConcepts[c]
	if m == nil {
		return []Concept{c}
	}
	return sortConcepts(m)
}

// SubPropertiesOf returns the (possibly inverted) object properties
// subsumed by p, including p itself.
func (o *Ontology) SubPropertiesOf(p PropRef) []PropRef {
	m := o.classify().subProps[p]
	if m == nil {
		return []PropRef{p}
	}
	out := make([]PropRef, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prop != out[j].Prop {
			return out[i].Prop < out[j].Prop
		}
		return !out[i].Inverse && out[j].Inverse
	})
	return out
}

// SubDataPropertiesOf returns the data properties subsumed by u, including
// u itself.
func (o *Ontology) SubDataPropertiesOf(u string) []string {
	m := o.classify().subDataProps[u]
	if m == nil {
		return []string{u}
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subsumes reports whether sup subsumes sub (sub ⊑* sup).
func (o *Ontology) Subsumes(sup, sub Concept) bool {
	m := o.classify().subConcepts[sup]
	return m != nil && m[sub]
}

// GeneratingAxioms returns the existential axioms applicable to instances of
// concept c: every ExistAxiom whose Sub subsumes-or-equals some
// super-concept of c. These drive tree-witness detection.
func (o *Ontology) GeneratingAxioms(c Concept) []ExistAxiom {
	supers := o.classify().superConcepts[c]
	var out []ExistAxiom
	for _, ax := range o.Existentials {
		if supers[ax.Sub] || ax.Sub == c {
			out = append(out, ax)
		}
	}
	return out
}

// UnsatisfiableClasses returns named classes that can have no instances in
// any model: classes subsumed by two declared-disjoint concepts.
func (o *Ontology) UnsatisfiableClasses() []string {
	var out []string
	for cl := range o.classes {
		supers := o.classify().superConcepts[NamedConcept(cl)]
		for _, d := range o.Disjoints {
			if supers[d.A] && supers[d.B] {
				out = append(out, cl)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortConcepts(m map[Concept]bool) []Concept {
	out := make([]Concept, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Prop != b.Prop {
			return a.Prop < b.Prop
		}
		if a.Inverse != b.Inverse {
			return !a.Inverse
		}
		return !a.IsData && b.IsData
	})
	return out
}
