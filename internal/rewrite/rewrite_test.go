package rewrite

import (
	"strings"
	"testing"

	"npdbench/internal/npd"
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
	// Lecturer2 ⊑ Professor ⊑ ∃teaches.Course: a Lecturer2-rooted query
	// still folds, with the generator found through the hierarchy.
	onto := testOntology()
	onto.AddSubClass(owl.NamedConcept(ns+"Lecturer2"), owl.NamedConcept(ns+"Professor"))
	rw := &Rewriter{Onto: onto, Existential: true}
	cq := parseBGP(t, `SELECT ?p WHERE { ?p a :Lecturer2 . ?p :teaches [ a :Course ] }`, onto)
	tws := rw.findTreeWitnesses(cq, protectedSet(cq, []string{"p"}))
	if len(tws) != 1 || len(tws[0].Generators) != 1 ||
		tws[0].Generators[0] != owl.NamedConcept(ns+"Professor") {
		t.Fatalf("want one witness generated by Professor, got %v", tws)
	}
	// The folded disjunct Lecturer2(p) ∧ Professor(p) loses Professor(p),
	// which Lecturer2(p) entails; the unfolded one loses both the range
	// atom Course and the edge teaches(p, _), which Lecturer2 ⊑ ∃teaches
	// entails. Both minimise to Lecturer2(p), so the UCQ has one disjunct.
	res, err := rw.Rewrite(cq, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWitnesses != 1 {
		t.Fatalf("tw = %d", res.TreeWitnesses)
	}
	if got := res.UCQ.String(); got != "q(p) <- Lecturer2(?p)" {
		t.Fatalf("UCQ is not minimal:\n%s", got)
	}
}

// entailOntology extends the test ontology with Student ⊑ ∃name and
// Course ⊑ ∃teaches⁻, so that the data and inverse cases of the free-end
// rule have an axiom to fire on.
func entailOntology() *owl.Ontology {
	o := testOntology()
	o.AddSubClass(owl.NamedConcept(ns+"Student"), owl.SomeData(ns+"name"))
	o.AddSubClass(owl.NamedConcept(ns+"Course"), owl.SomeValues(ns+"teaches", true))
	return o
}

// atomsAfterDrop runs dropEntailed on the query's CQ and renders the
// surviving atoms in order.
func atomsAfterDrop(t *testing.T, rw *Rewriter, src string, protected ...string) string {
	t.Helper()
	cq := parseBGP(t, src, rw.Onto)
	n := len(cq.Atoms)
	dropped := rw.dropEntailed(cq, protectedSet(cq, protected))
	if dropped != n-len(cq.Atoms) {
		t.Fatalf("dropEntailed reports %d drops, the CQ lost %d atoms", dropped, n-len(cq.Atoms))
	}
	parts := make([]string, len(cq.Atoms))
	for i, a := range cq.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ∧ ")
}

func TestDropEntailedRules(t *testing.T) {
	for _, tc := range []struct {
		name, src   string
		existential bool
		protected   []string
		want        string
	}{
		{"domain", `SELECT ?p ?c WHERE { ?p a :Professor ; :teaches ?c }`, false, nil,
			"teaches(?p,?c)"},
		{"domain through a subproperty", `SELECT ?p ?c WHERE { ?p a :Person ; :lectures ?c }`, false, nil,
			"lectures(?p,?c)"},
		{"range", `SELECT ?p ?c WHERE { ?p :teaches ?c . ?c a :Course }`, false, nil,
			"teaches(?p,?c)"},
		{"range on a blank node", `SELECT ?p WHERE { ?p :lectures [ a :Course ] }`, false, nil,
			"lectures(?p,?_bn1)"},
		{"subclass", `SELECT ?s WHERE { ?s a :Student , :Person }`, false, nil,
			"Student(?s)"},
		{"A ⊑ ∃R with a free object", `SELECT ?p WHERE { ?p a :Professor ; :teaches [] }`, true, nil,
			"Professor(?p)"},
		{"A ⊑ ∃U with a free value", `SELECT ?s WHERE { ?s a :Student ; :name [] }`, true, nil,
			"Student(?s)"},
		{"A ⊑ ∃R⁻ with a free subject", `SELECT ?c WHERE { [] :teaches ?c . ?c a :Course }`, true, nil,
			"Course(?c)"},
		{"free end off without existential reasoning", `SELECT ?s WHERE { ?s a :Student ; :name [] }`, false, nil,
			"Student(?s) ∧ name(?s,?_bn1)"},
		{"a shared blank node is not free", `SELECT ?s ?t WHERE { ?s a :Student ; :name _:n . ?t :name _:n }`, true, nil,
			"Student(?s) ∧ name(?s,?_bnl_n) ∧ name(?t,?_bnl_n)"},
		{"answer variables stay", `SELECT ?s ?n WHERE { ?s a :Student ; :name ?n }`, true, nil,
			"Student(?s) ∧ name(?s,?n)"},
		{"filter variables stay", `SELECT ?s WHERE { ?s a :Student ; :name _:n }`, true, []string{"_bnl_n"},
			"Student(?s) ∧ name(?s,?_bnl_n)"},
		{"protected class atoms stay unless entailed", `SELECT ?s WHERE { ?s a :Student ; :name [] . ?s a :Course }`, false, nil,
			"Student(?s) ∧ name(?s,?_bn1) ∧ Course(?s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rw := &Rewriter{Onto: entailOntology(), Existential: tc.existential}
			if got := atomsAfterDrop(t, rw, tc.src, tc.protected...); got != tc.want {
				t.Fatalf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestDropEntailedRemovalOrder pins the order for Professor ≡ ∃teaches:
// the class atom on the answer variable stays and the free-ended edge
// goes, whichever comes first in the query. Keeping the edge instead
// would leave the tree-witness fold Professor(p) as a second disjunct.
func TestDropEntailedRemovalOrder(t *testing.T) {
	rw := &Rewriter{Onto: testOntology(), Existential: true}
	for _, src := range []string{
		`SELECT ?p WHERE { ?p a :Professor ; :teaches [] }`,
		`SELECT ?p WHERE { ?p :teaches [] . ?p a :Professor }`,
		`SELECT ?p WHERE { ?p :teaches [ a :Course ] . ?p a :Professor }`,
	} {
		if got := atomsAfterDrop(t, rw, src); got != "Professor(?p)" {
			t.Errorf("%s: got %s, want Professor(?p)", src, got)
		}
	}
	// Without existential reasoning the edge cannot go, so the domain
	// axiom removes the class atom instead.
	rw.Existential = false
	if got := atomsAfterDrop(t, rw, `SELECT ?p WHERE { ?p a :Professor ; :teaches [] }`); got != "teaches(?p,?_bn1)" {
		t.Errorf("existential off: got %s, want teaches(?p,?_bn1)", got)
	}
}

// TestDropEntailedKeepsExplorationWellbore is the negative case on the
// NPD ontology: q1's ?w a :ExplorationWellbore stays, because the other
// atoms on ?w only entail Wellbore (drilledInLicence's domain).
func TestDropEntailedKeepsExplorationWellbore(t *testing.T) {
	onto := npd.NewOntology()
	q, err := sparql.Parse(npd.QueryByID("q1").SPARQL, npd.Prefixes())
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Pattern.(*sparql.Filter).Inner.(*sparql.BGP)
	cq, err := FromBGP(bgp, onto, sparql.PatternVars(bgp))
	if err != nil {
		t.Fatal(err)
	}
	rw := &Rewriter{Onto: onto, Existential: true}
	res, err := rw.Rewrite(cq, []string{"year"})
	if err != nil {
		t.Fatal(err)
	}
	if res.EntailedAtoms != 0 || len(res.UCQ) != 1 || len(res.UCQ[0].Atoms) != len(cq.Atoms) {
		t.Fatalf("q1 lost atoms (%d dropped):\n%s", res.EntailedAtoms, res.UCQ)
	}
}
