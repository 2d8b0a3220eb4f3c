// Package planck is the plan checker: a per-transform verifier over the
// queries and plans that flow through the OBDA pipeline. It checks the
// structural invariants of each intermediate representation — CQ/UCQ
// well-formedness, preservation of the certain answer variables, SQL
// schema well-formedness, column provenance against the relational
// catalog, and NOT NULL guard accounting for the constraint-driven
// unfolding — see Verifier.
//
// Every check fails fast with a structured Violation naming the pipeline
// stage that produced the offending plan, so a broken transform is caught
// at its source rather than as a wrong answer three stages later.
package planck

import (
	"fmt"

	"npdbench/internal/analyze"
	"npdbench/internal/owl"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

// Violation is a structured diagnostic produced by the verifier. It names
// the pipeline stage whose output broke an invariant, the invariant, and
// the offending construct.
type Violation struct {
	// Stage is the transform that produced the checked plan
	// ("translate", "rewrite", "unfold", ...).
	Stage string
	// Check identifies the invariant ("answer-preserved", "column-exists",
	// "projection-shape", ...).
	Check string
	// Detail describes the offending construct.
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("planck: stage %s: %s: %s", v.Stage, v.Check, v.Detail)
}

// Verifier checks pipeline invariants between transformation stages. The
// zero value performs purely structural checks; the ontology enables the
// type checks, the database catalog enables column provenance and SQL
// type-consistency checks, and the constraints artifact lets the verifier
// accept catalog-justified NOT NULL guard elisions.
type Verifier struct {
	Onto *owl.Ontology
	Cons *analyze.Constraints
	DB   *sqldb.Database
}

// violate builds a Violation error.
func violate(stage, check, format string, args ...interface{}) error {
	return &Violation{Stage: stage, Check: check, Detail: fmt.Sprintf(format, args...)}
}

// CheckCQ verifies the well-formedness of a single conjunctive query:
// non-empty predicates, class atoms without object terms, atom kinds
// agreeing with the ontology's property declarations, and every answer
// variable bound by at least one atom.
func (v *Verifier) CheckCQ(stage string, cq *rewrite.CQ) error {
	if cq == nil {
		return violate(stage, "cq-nil", "nil CQ")
	}
	if len(cq.Atoms) == 0 {
		return violate(stage, "cq-empty", "%s has no atoms", cq)
	}
	bound := map[string]bool{}
	for _, a := range cq.Atoms {
		if a.Pred == "" {
			return violate(stage, "atom-pred", "atom with empty predicate in %s", cq)
		}
		if !a.S.IsVar() && a.S.Const.IsZero() {
			return violate(stage, "atom-subject", "atom %s has no subject term", a)
		}
		if a.Kind == rewrite.ClassAtom {
			if a.O.IsVar() || !a.O.Const.IsZero() {
				return violate(stage, "atom-class-object", "class atom %s carries an object term", a)
			}
		} else if !a.O.IsVar() && a.O.Const.IsZero() {
			return violate(stage, "atom-object", "atom %s has no object term", a)
		}
		if v.Onto != nil {
			switch a.Kind {
			case rewrite.ClassAtom:
				if v.Onto.HasObjectProperty(a.Pred) || v.Onto.HasDataProperty(a.Pred) {
					return violate(stage, "atom-kind", "class atom %s uses a property IRI", a)
				}
			case rewrite.ObjPropAtom:
				if v.Onto.HasDataProperty(a.Pred) && !v.Onto.HasObjectProperty(a.Pred) {
					return violate(stage, "atom-kind", "object-property atom %s uses a data property", a)
				}
			case rewrite.DataPropAtom:
				if v.Onto.HasObjectProperty(a.Pred) && !v.Onto.HasDataProperty(a.Pred) {
					return violate(stage, "atom-kind", "data-property atom %s uses an object property", a)
				}
			}
		}
		for _, name := range a.Vars() {
			bound[name] = true
		}
	}
	for _, ans := range cq.Answer {
		if !bound[ans] {
			return violate(stage, "certain-var", "answer variable ?%s is unbound in %s", ans, cq)
		}
	}
	return nil
}

// CheckUCQ verifies a union of conjunctive queries: every disjunct must be
// well-formed, and every disjunct must preserve the required answer
// variables in the same order — the unfolder derives the SQL output layout
// from the first disjunct, so a divergent answer list would silently
// misalign the union columns.
func (v *Verifier) CheckUCQ(stage string, ucq rewrite.UCQ, answer []string) error {
	if len(ucq) == 0 {
		return violate(stage, "ucq-empty", "empty UCQ")
	}
	for i, cq := range ucq {
		if err := v.CheckCQ(stage, cq); err != nil {
			return err
		}
		if len(cq.Answer) != len(answer) {
			return violate(stage, "answer-preserved",
				"disjunct %d has %d answer variables, want %d (%s)", i, len(cq.Answer), len(answer), cq)
		}
		for j, a := range cq.Answer {
			if a != answer[j] {
				return violate(stage, "answer-preserved",
					"disjunct %d answer variable %d is ?%s, want ?%s (%s)", i, j, a, answer[j], cq)
			}
		}
	}
	return nil
}
