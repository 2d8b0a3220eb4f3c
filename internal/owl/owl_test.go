package owl

import (
	"testing"
	"testing/quick"
)

const ns = "http://test/"

func chainOntology() *Ontology {
	o := New(ns)
	// A ⊑ B ⊑ C; P ⊑ Q; inverse(P, Pinv); domain(P)=A; range(P)=C;
	// A ⊑ ∃R.B; disjoint(A, D)
	o.AddSubClass(NamedConcept(ns+"A"), NamedConcept(ns+"B"))
	o.AddSubClass(NamedConcept(ns+"B"), NamedConcept(ns+"C"))
	o.AddSubObjectProperty(PropRef{Prop: ns + "P"}, PropRef{Prop: ns + "Q"})
	o.AddInverse(ns+"P", ns+"Pinv")
	o.AddDomain(ns+"P", false, ns+"A")
	o.AddRange(ns+"P", ns+"C")
	o.AddExistential(NamedConcept(ns+"A"), ns+"R", false, ns+"B")
	o.AddDisjoint(NamedConcept(ns+"A"), NamedConcept(ns+"D"))
	o.AddSubDataProperty(ns+"u", ns+"v")
	return o
}

func TestSubConceptClosure(t *testing.T) {
	o := chainOntology()
	subsOfC := o.SubConceptsOf(NamedConcept(ns + "C"))
	want := map[string]bool{ns + "A": true, ns + "B": true, ns + "C": true}
	named := 0
	for _, c := range subsOfC {
		if c.IsNamed() {
			named++
			if !want[c.Class] {
				t.Errorf("unexpected subclass %s", c.Class)
			}
		}
	}
	if named != 3 {
		t.Fatalf("named subclasses of C = %d, want 3", named)
	}
	// ∃P ⊑ A ⊑ B ⊑ C via the domain axiom
	if !o.Subsumes(NamedConcept(ns+"C"), SomeValues(ns+"P", false)) {
		t.Fatal("∃P must be subsumed by C")
	}
	// ∃P⁻ ⊑ C via the range axiom
	if !o.Subsumes(NamedConcept(ns+"C"), SomeValues(ns+"P", true)) {
		t.Fatal("∃P⁻ must be subsumed by C")
	}
}

func TestSubsumptionIsReflexiveAndTransitive(t *testing.T) {
	o := chainOntology()
	for _, c := range o.ClassNames() {
		if !o.Subsumes(NamedConcept(c), NamedConcept(c)) {
			t.Fatalf("subsumption must be reflexive (%s)", c)
		}
	}
	if !o.Subsumes(NamedConcept(ns+"C"), NamedConcept(ns+"A")) {
		t.Fatal("A ⊑ C by transitivity")
	}
	if o.Subsumes(NamedConcept(ns+"A"), NamedConcept(ns+"C")) {
		t.Fatal("C ⋢ A")
	}
}

func TestPropertyHierarchyWithInverses(t *testing.T) {
	o := chainOntology()
	subsOfQ := o.SubPropertiesOf(PropRef{Prop: ns + "Q"})
	found := map[string]bool{}
	for _, p := range subsOfQ {
		found[p.String()] = true
	}
	if !found[ns+"P"] || !found[ns+"Q"] {
		t.Fatalf("P and Q must be sub-properties of Q: %v", found)
	}
	// Pinv ≡ P⁻, so Pinv⁻ ⊑ Q too
	if !found[ns+"Pinv⁻"] {
		t.Fatalf("Pinv⁻ must be a sub-property of Q: %v", found)
	}
	// inverse direction: P⁻ ⊑ Q⁻
	subsOfQinv := o.SubPropertiesOf(PropRef{Prop: ns + "Q", Inverse: true})
	foundInv := map[string]bool{}
	for _, p := range subsOfQinv {
		foundInv[p.String()] = true
	}
	if !foundInv[ns+"P⁻"] || !foundInv[ns+"Pinv"] {
		t.Fatalf("P⁻ and Pinv must be sub-properties of Q⁻: %v", foundInv)
	}
}

func TestDataPropertyHierarchy(t *testing.T) {
	o := chainOntology()
	subs := o.SubDataPropertiesOf(ns + "v")
	if len(subs) != 2 {
		t.Fatalf("sub data props of v: %v", subs)
	}
	// ∃u ⊑ ∃v at the concept level
	if !o.Subsumes(SomeData(ns+"v"), SomeData(ns+"u")) {
		t.Fatal("∃u ⊑ ∃v expected")
	}
}

func TestGeneratingAxioms(t *testing.T) {
	o := chainOntology()
	// A has the existential directly.
	if got := o.GeneratingAxioms(NamedConcept(ns + "A")); len(got) != 1 {
		t.Fatalf("A generating axioms = %d, want 1", len(got))
	}
	// C does not (the axiom's Sub is A, and A is below C, not above).
	if got := o.GeneratingAxioms(NamedConcept(ns + "C")); len(got) != 0 {
		t.Fatalf("C generating axioms = %d, want 0", len(got))
	}
}

func TestUnsatisfiableClasses(t *testing.T) {
	o := chainOntology()
	if u := o.UnsatisfiableClasses(); len(u) != 0 {
		t.Fatalf("consistent ontology reports unsat classes %v", u)
	}
	// E ⊑ A and E ⊑ D with disjoint(A, D) makes E unsatisfiable.
	o.AddSubClass(NamedConcept(ns+"E"), NamedConcept(ns+"A"))
	o.AddSubClass(NamedConcept(ns+"E"), NamedConcept(ns+"D"))
	u := o.UnsatisfiableClasses()
	if len(u) != 1 || u[0] != ns+"E" {
		t.Fatalf("unsat = %v, want [E]", u)
	}
}

func TestHierarchyDepth(t *testing.T) {
	o := New(ns)
	prev := "L0"
	for i := 1; i <= 7; i++ {
		cur := "L" + string(rune('0'+i))
		o.AddSubClass(NamedConcept(ns+cur), NamedConcept(ns+prev))
		prev = cur
	}
	if d := o.Stats().MaxDepth; d != 7 {
		t.Fatalf("depth = %d, want 7", d)
	}
}

func TestDepthCycleGuard(t *testing.T) {
	o := New(ns)
	o.AddSubClass(NamedConcept(ns+"X"), NamedConcept(ns+"Y"))
	o.AddSubClass(NamedConcept(ns+"Y"), NamedConcept(ns+"X"))
	// must terminate
	_ = o.Stats().MaxDepth
	// and the closure must treat them as mutually subsumed
	if !o.Subsumes(NamedConcept(ns+"X"), NamedConcept(ns+"Y")) ||
		!o.Subsumes(NamedConcept(ns+"Y"), NamedConcept(ns+"X")) {
		t.Fatal("cyclic subclassing means mutual subsumption")
	}
}

func TestClassificationCacheInvalidation(t *testing.T) {
	o := New(ns)
	o.AddSubClass(NamedConcept(ns+"A"), NamedConcept(ns+"B"))
	if !o.Subsumes(NamedConcept(ns+"B"), NamedConcept(ns+"A")) {
		t.Fatal("A ⊑ B")
	}
	// add after classification: cache must invalidate
	o.AddSubClass(NamedConcept(ns+"B"), NamedConcept(ns+"C"))
	if !o.Subsumes(NamedConcept(ns+"C"), NamedConcept(ns+"A")) {
		t.Fatal("A ⊑ C after adding B ⊑ C")
	}
}

func TestPropRefInvolution(t *testing.T) {
	f := func(name string, inv bool) bool {
		p := PropRef{Prop: name, Inverse: inv}
		return p.Inv().Inv() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsumptionClosureProperty(t *testing.T) {
	// Random chains: subsumption along any chain must hold end to end.
	o := New(ns)
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	for i := 0; i+1 < len(names); i++ {
		o.AddSubClass(NamedConcept(ns+names[i]), NamedConcept(ns+names[i+1]))
	}
	for i := 0; i < len(names); i++ {
		for j := i; j < len(names); j++ {
			if !o.Subsumes(NamedConcept(ns+names[j]), NamedConcept(ns+names[i])) {
				t.Fatalf("%s ⊑ %s expected", names[i], names[j])
			}
			if i != j && o.Subsumes(NamedConcept(ns+names[i]), NamedConcept(ns+names[j])) {
				t.Fatalf("%s ⋢ %s expected", names[j], names[i])
			}
		}
	}
}
