package rewrite

import (
	"strings"
	"testing"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

const ns = "http://test/"

func testOntology() *owl.Ontology {
	o := owl.New(ns)
	o.AddSubClass(owl.NamedConcept(ns+"Student"), owl.NamedConcept(ns+"Person"))
	o.AddSubClass(owl.NamedConcept(ns+"Professor"), owl.NamedConcept(ns+"Person"))
	o.AddDomain(ns+"teaches", false, ns+"Professor")
	o.AddRange(ns+"teaches", ns+"Course")
	o.AddSubObjectProperty(owl.PropRef{Prop: ns + "lectures"}, owl.PropRef{Prop: ns + "teaches"})
	o.AddInverse(ns+"teaches", ns+"taughtBy")
	o.AddExistential(owl.NamedConcept(ns+"Professor"), ns+"teaches", false, ns+"Course")
	o.DeclareDataProperty(ns + "name")
	return o
}

func parseBGP(t *testing.T, src string, onto *owl.Ontology) *CQ {
	t.Helper()
	pm := rdf.StandardPrefixes()
	pm[""] = ns
	q, err := sparql.Parse(src, pm)
	if err != nil {
		t.Fatal(err)
	}
	bgp, ok := q.Pattern.(*sparql.BGP)
	if !ok {
		t.Fatalf("pattern is %T, want BGP", q.Pattern)
	}
	var answer []string
	for _, v := range sparql.PatternVars(bgp) {
		if !strings.HasPrefix(v, "_bn") {
			answer = append(answer, v)
		}
	}
	cq, err := FromBGP(bgp, onto, answer)
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

func TestHierarchyExpansion(t *testing.T) {
	onto := testOntology()
	rw := &Rewriter{Onto: onto, ExpandHierarchy: true}
	cq := parseBGP(t, `SELECT ?x WHERE { ?x a :Person }`, onto)
	res, err := rw.Rewrite(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Person(x) expands to: Person, Student, Professor, ∃teaches (domain),
	// ∃lectures (⊑ teaches), ∃taughtBy⁻ (≡ teaches)... at least 5 CQs.
	if res.CQCount < 5 {
		t.Fatalf("CQ count = %d, want >= 5\n%s", res.CQCount, res.UCQ)
	}
	// one disjunct must be the property atom teaches(x, fresh)
	found := false
	for _, q := range res.UCQ {
		for _, a := range q.Atoms {
			if a.Kind == ObjPropAtom && a.Pred == ns+"teaches" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("expected a teaches-atom disjunct:\n%s", res.UCQ)
	}
}

func TestPropertyHierarchyExpansion(t *testing.T) {
	onto := testOntology()
	rw := &Rewriter{Onto: onto, ExpandHierarchy: true}
	cq := parseBGP(t, `SELECT ?x ?y WHERE { ?x :teaches ?y }`, onto)
	res, err := rw.Rewrite(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	// teaches(x,y) expands by lectures(x,y) and taughtBy(y,x).
	var preds []string
	swapped := false
	for _, q := range res.UCQ {
		for _, a := range q.Atoms {
			preds = append(preds, a.Pred)
			if a.Pred == ns+"taughtBy" && a.S.Var == "y" && a.O.Var == "x" {
				swapped = true
			}
		}
	}
	if len(res.UCQ) != 3 {
		t.Fatalf("UCQ size = %d, want 3 (%v)", len(res.UCQ), preds)
	}
	if !swapped {
		t.Fatalf("inverse property must swap arguments: %s", res.UCQ)
	}
}

func TestTreeWitnessDetection(t *testing.T) {
	onto := testOntology()
	rw := &Rewriter{Onto: onto, Existential: true}
	// ?p teaches some course: the course variable is non-distinguished.
	cq := parseBGP(t, `SELECT ?p WHERE { ?p a :Professor . ?p :teaches [ a :Course ] }`, onto)
	res, err := rw.Rewrite(cq, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWitnesses != 1 {
		t.Fatalf("tree witnesses = %d, want 1", res.TreeWitnesses)
	}
	// The minimized UCQ is the single folded CQ {Professor(p)}: the folded
	// disjunct subsumes the unfolded one.
	if len(res.UCQ) != 1 || len(res.UCQ[0].Atoms) != 1 {
		t.Fatalf("expected minimized UCQ with one 1-atom CQ, got:\n%s", res.UCQ)
	}
	if res.UCQ[0].Atoms[0].Pred != ns+"Professor" {
		t.Fatalf("folded CQ should be Professor(p): %s", res.UCQ[0])
	}
}

func TestTreeWitnessProtectedVariable(t *testing.T) {
	onto := testOntology()
	rw := &Rewriter{Onto: onto, Existential: true}
	// same query but the course variable is an answer variable: no folding.
	cq := parseBGP(t, `SELECT ?p ?c WHERE { ?p a :Professor . ?p :teaches ?c . ?c a :Course }`, onto)
	res, err := rw.Rewrite(cq, []string{"p", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWitnesses != 0 {
		t.Fatalf("answer variables must not fold: tw = %d", res.TreeWitnesses)
	}
}

func TestTreeWitnessRejectsMultiRoot(t *testing.T) {
	onto := testOntology()
	rw := &Rewriter{Onto: onto, Existential: true}
	// the existential variable connects two different roots: not a tree.
	cq := parseBGP(t, `SELECT ?p ?q WHERE { ?p :teaches ?c . ?q :teaches ?c }`, onto)
	res, err := rw.Rewrite(cq, []string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWitnesses != 0 {
		t.Fatalf("multi-root variable must not fold: tw = %d", res.TreeWitnesses)
	}
}

func TestMinimizeUCQRemovesSubsumed(t *testing.T) {
	a1 := Atom{Kind: ClassAtom, Pred: ns + "A", S: Term{Var: "x"}}
	a2 := Atom{Kind: ObjPropAtom, Pred: ns + "p", S: Term{Var: "x"}, O: Term{Var: "y"}}
	small := &CQ{Atoms: []Atom{a1}, Answer: []string{"x"}}
	big := &CQ{Atoms: []Atom{a1, a2}, Answer: []string{"x"}}
	out := minimizeUCQ(UCQ{big, small})
	if len(out) != 1 || len(out[0].Atoms) != 1 {
		t.Fatalf("expected only the small CQ to survive: %s", out)
	}
}

func TestNormalizeRemovesDuplicateAtoms(t *testing.T) {
	a := Atom{Kind: ClassAtom, Pred: ns + "A", S: Term{Var: "x"}}
	q := &CQ{Atoms: []Atom{a, a, a}}
	q.Normalize()
	if len(q.Atoms) != 1 {
		t.Fatalf("atoms = %d, want 1", len(q.Atoms))
	}
}

func TestMaxCQsTruncation(t *testing.T) {
	onto := owl.New(ns)
	// one class with many subclasses
	for i := 0; i < 50; i++ {
		sub := ns + "S" + string(rune('A'+i%26)) + string(rune('A'+i/26))
		onto.AddSubClass(owl.NamedConcept(sub), owl.NamedConcept(ns+"Top"))
	}
	rw := &Rewriter{Onto: onto, ExpandHierarchy: true, MaxCQs: 10}
	cq := &CQ{
		Atoms:  []Atom{{Kind: ClassAtom, Pred: ns + "Top", S: Term{Var: "x"}}},
		Answer: []string{"x"},
	}
	res, err := rw.Rewrite(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.CQCount > 10 {
		t.Fatalf("CQ count %d exceeds cap", res.CQCount)
	}
}

func TestSaturateDerivesHierarchy(t *testing.T) {
	onto := testOntology()
	mp := r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://test/

[MappingDeclaration]
mappingId students
target    t:person/{id} a t:Student .
source    SELECT id FROM students

mappingId teaching
target    t:person/{id} t:lectures t:course/{course} .
source    SELECT id, course FROM teaching
`)
	sat := Saturate(mp, onto)
	// Person must now have assertions (from Student and from ∃teaches ⊒ ∃lectures).
	persons := 0
	teaches := 0
	taughtBy := 0
	for _, m := range sat.Maps {
		for _, c := range m.Classes {
			if c == ns+"Person" {
				persons++
			}
		}
		for _, po := range m.POs {
			if po.Predicate == ns+"teaches" {
				teaches++
			}
			if po.Predicate == ns+"taughtBy" {
				taughtBy++
			}
		}
	}
	if persons == 0 {
		t.Fatal("saturation must derive Person assertions")
	}
	if teaches == 0 {
		t.Fatal("saturation must derive teaches from lectures")
	}
	if taughtBy == 0 {
		t.Fatal("saturation must derive the inverse taughtBy with swapped terms")
	}
}

func TestOptimizeMappingDropsRedundant(t *testing.T) {
	mp := r2rml.NewMapping()
	mp.Add(&r2rml.TriplesMap{
		Name: "all", Table: "w",
		Subject: r2rml.IRIMap(ns + "w/{id}"),
		Classes: []string{ns + "W"},
	})
	mp.Add(&r2rml.TriplesMap{
		Name: "cond", SQL: "SELECT id FROM w WHERE kind = 'X'",
		Subject: r2rml.IRIMap(ns + "w/{id}"),
		Classes: []string{ns + "W"},
	})
	out := OptimizeMapping(mp)
	n := 0
	for _, m := range out.Maps {
		n += len(m.Classes)
	}
	if n != 1 {
		t.Fatalf("assertions for W = %d, want 1 (conditional subsumed by full scan)", n)
	}
}

func TestOptimizeMappingKeepsRenamedColumns(t *testing.T) {
	// Both sources read table T, and the second's WHERE is a superset of
	// the first's, but {v} is column a in one and column b in the other:
	// neither assertion's triples contain the other's.
	mp := r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://test/

[MappingDeclaration]
mappingId plain
target    t:t/{id} t:label {v} .
source    SELECT id, a AS v FROM T

mappingId kinded
target    t:t/{id} t:label {v} .
source    SELECT id, b AS v FROM T WHERE kind = 'K'
`)
	out := OptimizeMapping(mp)
	if got := out.AssertionCount(); got != 2 {
		t.Fatalf("assertions = %d, want 2 (renamed columns are not comparable)", got)
	}
}

func TestFromBGPRejectsVariablePredicate(t *testing.T) {
	onto := testOntology()
	pm := rdf.StandardPrefixes()
	pm[""] = ns
	q, err := sparql.Parse(`SELECT ?x WHERE { ?x ?p ?y }`, pm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromBGP(q.Pattern.(*sparql.BGP), onto, nil); err == nil {
		t.Fatal("variable predicates must be rejected")
	}
}

func TestSaturateDerivesRangeClasses(t *testing.T) {
	// Course instances must be derivable from objects of teaches (range
	// axiom ∃teaches⁻ ⊑ Course) and from objects of lectures (⊑ teaches).
	onto := testOntology()
	mp := r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://test/

[MappingDeclaration]
mappingId teaching
target    t:person/{id} t:lectures t:course/{course} .
source    SELECT id, course FROM teaching
`)
	sat := Saturate(mp, onto)
	courseFromObject := false
	profFromSubject := false
	for _, m := range sat.Maps {
		for _, c := range m.Classes {
			if c == ns+"Course" && m.Subject.Template.String() == "http://test/course/{course}" {
				courseFromObject = true
			}
			if c == ns+"Professor" && m.Subject.Template.String() == "http://test/person/{id}" {
				profFromSubject = true
			}
		}
	}
	if !courseFromObject {
		t.Fatal("range axiom must derive Course from lectures objects")
	}
	if !profFromSubject {
		t.Fatal("domain axiom must derive Professor from lectures subjects")
	}
}

func TestSaturateSkipsLiteralObjectsForInverse(t *testing.T) {
	// A literal-valued property cannot feed an ∃R⁻ class derivation.
	onto := owl.New(ns)
	onto.DeclareDataProperty(ns + "label")
	onto.AddRange(ns+"p", ns+"Target")
	mp := r2rml.NewMapping()
	mp.Add(&r2rml.TriplesMap{
		Name: "m", Table: "t",
		Subject: r2rml.IRIMap(ns + "x/{id}"),
		POs: []r2rml.PredicateObject{
			{Predicate: ns + "p", Object: r2rml.ColumnMap("v")},
		},
	})
	sat := Saturate(mp, onto)
	for _, m := range sat.Maps {
		for _, c := range m.Classes {
			if c == ns+"Target" && m.Subject.Kind == r2rml.LiteralColumn {
				t.Fatal("literal object used as class subject")
			}
		}
	}
}

func TestTreeWitnessGeneratorsAcrossHierarchy(t *testing.T) {
	// Lecturer ⊑ Professor ⊑ ∃teaches.Course: a Lecturer-rooted query
	// still folds, and the folded CQ keeps the root atom.
	onto := testOntology()
	onto.AddSubClass(owl.NamedConcept(ns+"Lecturer2"), owl.NamedConcept(ns+"Professor"))
	rw := &Rewriter{Onto: onto, Existential: true}
	cq := parseBGP(t, `SELECT ?p WHERE { ?p a :Lecturer2 . ?p :teaches [ a :Course ] }`, onto)
	res, err := rw.Rewrite(cq, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWitnesses != 1 {
		t.Fatalf("tw = %d", res.TreeWitnesses)
	}
	// minimized: Lecturer2(p) ∧ Professor(p) — generator Professor is not
	// already implied syntactically, so both atoms remain.
	found := false
	for _, q := range res.UCQ {
		has2, hasProf := false, false
		for _, a := range q.Atoms {
			if a.Pred == ns+"Lecturer2" {
				has2 = true
			}
			if a.Pred == ns+"Professor" {
				hasProf = true
			}
		}
		if has2 && hasProf && len(q.Atoms) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected folded disjunct {Lecturer2(p), Professor(p)}:\n%s", res.UCQ)
	}
}
