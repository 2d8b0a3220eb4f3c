package rewrite

import (
	"strings"

	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

// OptimizeMapping removes redundant mapping assertions: an assertion for a
// term is dropped when another assertion for the same term, with the same
// subject (and object) templates, draws from the same base table under a
// WHERE clause whose conjuncts are a subset of this one's — its rows are a
// superset. This is the T-mapping optimization of Ontop the paper refers
// to ("the opportunity to apply different optimization on the mappings at
// loading time"): without it, a saturated NPD mapping asserts
// :ExplorationWellbore once per conditional subclass of the same table,
// and every class atom in a query multiplies into dozens of redundant
// union arms.
//
// The containment test is deliberately conservative: only sources that
// are plain projections of one base table compare
// (r2rml.TriplesMap.SourceShape), and containment is syntactic
// conjunct-set inclusion (sqldb.Subsume; the unrestricted source is the
// empty-set special case, equal conjunct sets collapse to one assertion).
// A source that renames or computes a column is never compared: the same
// term map over it reads different values than over its base table.
func OptimizeMapping(mp *r2rml.Mapping) *r2rml.Mapping {
	// assertion identifies one class or PO assertion inside the mapping.
	type assertion struct {
		mapIdx int
		isPO   bool
		idx    int // index into Classes or POs
	}
	var asserts []assertion
	var sets []sqldb.ConjunctSet
	for mi, m := range mp.Maps {
		table, conjs, ok := m.SourceShape()
		if !ok {
			continue
		}
		subj := m.Subject.String()
		add := func(a assertion, term, obj string) {
			asserts = append(asserts, a)
			sets = append(sets, sqldb.ConjunctSet{
				Group: strings.Join([]string{term, table, subj, obj}, "\x00"), Conjs: conjs})
		}
		for ci, c := range m.Classes {
			add(assertion{mapIdx: mi, idx: ci}, c, "")
		}
		for pi, po := range m.POs {
			add(assertion{mapIdx: mi, isPO: true, idx: pi}, po.Predicate, po.Object.String())
		}
	}
	drop := make(map[assertion]bool)
	for i, keep := range sqldb.Subsume(sets) {
		if !keep {
			drop[asserts[i]] = true
		}
	}
	if len(drop) == 0 {
		return mp
	}

	out := r2rml.NewMapping()
	for k, v := range mp.Prefixes {
		out.Prefixes[k] = v
	}
	for mi, m := range mp.Maps {
		nm := &r2rml.TriplesMap{Name: m.Name, Table: m.Table, SQL: m.SQL, Subject: m.Subject}
		for ci, c := range m.Classes {
			if !drop[assertion{mapIdx: mi, idx: ci}] {
				nm.Classes = append(nm.Classes, c)
			}
		}
		for pi, po := range m.POs {
			if !drop[assertion{mapIdx: mi, isPO: true, idx: pi}] {
				nm.POs = append(nm.POs, po)
			}
		}
		if len(nm.Classes) > 0 || len(nm.POs) > 0 {
			out.Add(nm)
		}
	}
	return out
}
