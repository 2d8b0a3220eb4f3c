package core

import (
	"fmt"
	"time"

	"npdbench/internal/obs"
	"npdbench/internal/owl"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/unfold"
)

// Violation reports one inconsistency witness: an individual (or pair)
// entailed to belong to declared-disjoint concepts or properties.
type Violation struct {
	// Kind is "class" or "property".
	Kind string
	// A and B are the disjoint terms violated.
	A, B string
	// Witness is the offending individual (class case) or subject (property
	// case).
	Witness rdf.Term
}

func (v Violation) String() string {
	return fmt.Sprintf("%s disjointness %s ⊓ %s violated by %s", v.Kind, v.A, v.B, v.Witness)
}

// ConsistencyReport is the result of a consistency check.
type ConsistencyReport struct {
	Consistent bool
	Violations []Violation
	Elapsed    time.Duration
	// ChecksRun counts the disjointness axioms evaluated.
	ChecksRun int
}

// CheckConsistency verifies the virtual instance against every declared
// disjointness axiom by answering, for each axiom A ⊓ B ⊑ ⊥, the boolean
// query ∃x. A(x) ∧ B(x) through the normal rewrite→unfold→execute
// pipeline. This is the paper's requirement O2 in action: the TBox's
// negative axioms give the reasoner something to falsify. maxWitnesses
// bounds the number of reported witnesses per axiom (0 = 1).
func (e *Engine) CheckConsistency(maxWitnesses int) (*ConsistencyReport, error) {
	if maxWitnesses <= 0 {
		maxWitnesses = 1
	}
	start := obs.Now()
	rep := &ConsistencyReport{Consistent: true}

	askBoth := func(a, b owl.Concept) ([][]rdf.Term, error) {
		cq := &rewrite.CQ{Answer: []string{"x"}}
		add := func(c owl.Concept) {
			x := rewrite.Term{Var: "x"}
			switch {
			case c.IsNamed():
				cq.Atoms = append(cq.Atoms, rewrite.Atom{Kind: rewrite.ClassAtom, Pred: c.Class, S: x})
			case c.IsData:
				cq.Atoms = append(cq.Atoms, rewrite.Atom{Kind: rewrite.DataPropAtom, Pred: c.Prop, S: x, O: rewrite.Term{Var: "_w" + c.Prop}})
			case c.Inverse:
				cq.Atoms = append(cq.Atoms, rewrite.Atom{Kind: rewrite.ObjPropAtom, Pred: c.Prop, S: rewrite.Term{Var: "_w" + c.Prop}, O: x})
			default:
				cq.Atoms = append(cq.Atoms, rewrite.Atom{Kind: rewrite.ObjPropAtom, Pred: c.Prop, S: x, O: rewrite.Term{Var: "_w" + c.Prop}})
			}
		}
		add(a)
		add(b)
		res, err := rewriteComplete(e.rewriter, cq, []string{"x"})
		if err != nil {
			return nil, err
		}
		un, err := unfold.Unfold(res.UCQ, e.mapping, nil, unfold.Opts{Cons: e.cons})
		if err != nil {
			return nil, err
		}
		if un.Stmt == nil {
			return nil, nil
		}
		un.Stmt.Limit = maxWitnesses
		sqlRes, err := e.spec.DB.ExecSelect(un.Stmt)
		if err != nil {
			return nil, err
		}
		// ?x is the first answer variable: translate its columns only.
		return translateRows([]int{0}, 1, sqlRes), nil
	}

	for _, d := range e.spec.Onto.Disjoints {
		rep.ChecksRun++
		witnesses, err := askBoth(d.A, d.B)
		if err != nil {
			return nil, fmt.Errorf("core: consistency check %s/%s: %w", d.A, d.B, err)
		}
		for i, w := range witnesses {
			if i >= maxWitnesses {
				break
			}
			rep.Consistent = false
			rep.Violations = append(rep.Violations, Violation{
				Kind: "class", A: d.A.String(), B: d.B.String(), Witness: w[0],
			})
		}
	}

	// Disjoint object properties: ∃x,y. P(x,y) ∧ Q(x,y).
	for _, d := range e.spec.Onto.DisjointProps {
		rep.ChecksRun++
		cq := &rewrite.CQ{
			Answer: []string{"x", "y"},
			Atoms: []rewrite.Atom{
				{Kind: rewrite.ObjPropAtom, Pred: d.A.Prop, S: rewrite.Term{Var: "x"}, O: rewrite.Term{Var: "y"}},
				{Kind: rewrite.ObjPropAtom, Pred: d.B.Prop, S: rewrite.Term{Var: "x"}, O: rewrite.Term{Var: "y"}},
			},
		}
		res, err := rewriteComplete(e.rewriter, cq, []string{"x", "y"})
		if err != nil {
			return nil, err
		}
		un, err := unfold.Unfold(res.UCQ, e.mapping, nil, unfold.Opts{Cons: e.cons})
		if err != nil {
			return nil, err
		}
		if un.Stmt == nil {
			continue
		}
		un.Stmt.Limit = maxWitnesses
		sqlRes, err := e.spec.DB.ExecSelect(un.Stmt)
		if err != nil {
			return nil, err
		}
		for _, w := range translateRows([]int{0}, 1, sqlRes) { // ?x first, as above
			rep.Consistent = false
			rep.Violations = append(rep.Violations, Violation{
				Kind: "property", A: d.A.String(), B: d.B.String(), Witness: w[0],
			})
		}
	}
	rep.Elapsed = obs.Since(start)
	return rep, nil
}
