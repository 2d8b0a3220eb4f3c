package analyze

import (
	"sort"
	"strings"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

// Constraints is the optimization half of the static analysis: database
// key/NULL metadata plus exact-mapping predicates, in the form the
// unfolder consumes at query time (Hovland et al.'s OBDA constraints).
//
//   - Unique keys turn into virtual functional dependencies: two table
//     instances joined on a subject template whose columns cover a key of
//     the table denote the same row and collapse into one instance — even
//     when they come from different mapping assertions.
//   - NOT NULL columns let the unfolder elide the R2RML NULL guards it
//     otherwise emits for every term-map column.
//   - Exact terms are ontology predicates whose direct mapping already
//     produces everything T-mapping saturation could derive; rewriting
//     below them is pure redundancy.
//   - Value classes narrow what an IRI-template placeholder can expand
//     to: INT and DATE columns only ever render as [0-9-]*, so templates
//     whose literals a placeholder over such a column cannot absorb are
//     disjoint, and joins between them are pruned at unfold time.
//
// All lookups are case-insensitive on table/column names, matching the
// sqldb catalog. A nil *Constraints is valid and constrains nothing.
type Constraints struct {
	keys    map[string][][]string          // table -> PK/UNIQUE column sets
	notNull map[string]map[string]bool     // table -> column -> true
	classes map[string]r2rml.ColumnClasses // table -> column -> Digits
	exact   map[string]bool                // ontology term IRI -> exact
}

// KeyCoveredBy reports whether some PK/UNIQUE key of table is fully
// contained in cols.
func (c *Constraints) KeyCoveredBy(table string, cols []string) bool {
	if c == nil {
		return false
	}
	have := make(map[string]bool, len(cols))
	for _, col := range cols {
		have[strings.ToLower(col)] = true
	}
	for _, key := range c.keys[strings.ToLower(table)] {
		covered := true
		for _, kc := range key {
			if !have[kc] {
				covered = false
				break
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// IsNotNull reports whether table.col is declared NOT NULL (directly or as
// a primary-key column).
func (c *Constraints) IsNotNull(table, col string) bool {
	if c == nil {
		return false
	}
	return c.notNull[strings.ToLower(table)][strings.ToLower(col)]
}

// ValueClasses returns the value classes of m's source columns: its base
// table's column classes when the source is a plain projection of one
// table (r2rml.TriplesMap.BaseTable), nil — every column Any — otherwise.
func (c *Constraints) ValueClasses(m *r2rml.TriplesMap) r2rml.ColumnClasses {
	if c == nil {
		return nil
	}
	table, _, ok := m.BaseTable()
	if !ok {
		return nil
	}
	return c.classes[strings.ToLower(table)]
}

// IsExact reports whether the ontology term's direct mapping subsumes
// every mapping derivable for it through the ontology.
func (c *Constraints) IsExact(term string) bool {
	if c == nil {
		return false
	}
	return c.exact[term]
}

// ExactTerms lists the exact predicates, sorted.
func (c *Constraints) ExactTerms() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.exact))
	for t := range c.exact {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ConstraintStats summarizes a Constraints artifact for reporting.
type ConstraintStats struct {
	Tables         int `json:"tables"`
	Keys           int `json:"keys"`
	NotNullColumns int `json:"notNullColumns"`
	ExactTerms     int `json:"exactTerms"`
}

// Stats computes summary counts.
func (c *Constraints) Stats() ConstraintStats {
	var s ConstraintStats
	if c == nil {
		return s
	}
	s.Tables = len(c.keys)
	for _, ks := range c.keys {
		s.Keys += len(ks)
	}
	for _, nn := range c.notNull {
		s.NotNullColumns += len(nn)
	}
	s.ExactTerms = len(c.exact)
	return s
}

// DeriveConstraints builds the Constraints artifact from the catalog's
// PK/UNIQUE/NOT NULL metadata and the mapping/ontology pair. It is cheap
// (one pass over schema and mapping) and runs once at engine load.
func DeriveConstraints(mp *r2rml.Mapping, onto *owl.Ontology, db *sqldb.Database) *Constraints {
	c := &Constraints{
		keys:    map[string][][]string{},
		notNull: map[string]map[string]bool{},
		classes: map[string]r2rml.ColumnClasses{},
		exact:   map[string]bool{},
	}
	for _, t := range db.Tables() {
		def := t.Def
		lt := strings.ToLower(def.Name)
		addKey := func(cols []int) {
			if len(cols) == 0 {
				return
			}
			names := make([]string, len(cols))
			for i, ci := range cols {
				names[i] = strings.ToLower(def.Columns[ci].Name)
			}
			c.keys[lt] = append(c.keys[lt], names)
		}
		addKey(def.PrimaryKey)
		for _, u := range def.Uniques {
			addKey(u)
		}
		nn := map[string]bool{}
		for _, col := range def.Columns {
			if col.NotNull {
				nn[strings.ToLower(col.Name)] = true
			}
		}
		// PK columns reject NULLs at insert even without a NOT NULL flag.
		for _, ci := range def.PrimaryKey {
			nn[strings.ToLower(def.Columns[ci].Name)] = true
		}
		if len(nn) > 0 {
			c.notNull[lt] = nn
		}
		// Table.checkTypes enforces the column kind at insert, so INT and
		// DATE values always render through strconv.FormatInt or
		// %04d-%02d-%02d.
		cls := r2rml.ColumnClasses{}
		for _, col := range def.Columns {
			if col.Type == sqldb.TInt || col.Type == sqldb.TDate {
				cls[strings.ToLower(col.Name)] = r2rml.Digits
			}
		}
		if len(cls) > 0 {
			c.classes[lt] = cls
		}
		if len(c.keys[lt]) == 0 {
			// keep the table present so Stats counts it
			c.keys[lt] = nil
		}
	}
	if mp != nil && onto != nil {
		deriveExact(c, mp, onto)
	}
	return c
}

// deriveExact marks ontology terms whose direct mapping assertions subsume
// every assertion T-mapping saturation could derive from strictly
// subsumed terms. The check is conservative: only single-base-table
// sources compare, containment is WHERE-conjunct subset, and any
// derivation path the comparison cannot see (existential subclasses,
// inverse sub-properties) disqualifies the term.
func deriveExact(c *Constraints, mp *r2rml.Mapping, onto *owl.Ontology) {
	shapes := assertionShapes(mp)
	covered := func(sup, sub []shape) bool {
		for _, b := range sub {
			ok := false
			for _, a := range sup {
				if a.subsumes(b) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	for _, cls := range onto.ClassNames() {
		direct := shapes[cls]
		if len(direct) == 0 {
			continue
		}
		exact := true
		for _, sub := range onto.SubConceptsOf(owl.NamedConcept(cls)) {
			if !sub.IsNamed() {
				// ∃R subclass: saturation derives cls from R's mapping —
				// outside the shape comparison, so not provably exact.
				if len(shapes[sub.Prop]) > 0 {
					exact = false
					break
				}
				continue
			}
			if sub.Class == cls {
				continue
			}
			if !covered(direct, shapes[sub.Class]) {
				exact = false
				break
			}
		}
		if exact {
			c.exact[cls] = true
		}
	}
	for _, prop := range onto.ObjectPropertyNames() {
		direct := shapes[prop]
		if len(direct) == 0 {
			continue
		}
		exact := true
		for _, sub := range onto.SubPropertiesOf(owl.PropRef{Prop: prop}) {
			if sub.Prop == prop && !sub.Inverse {
				continue
			}
			if sub.Inverse {
				// Inverse derivations swap subject/object; out of scope.
				if len(shapes[sub.Prop]) > 0 {
					exact = false
					break
				}
				continue
			}
			if !covered(direct, shapes[sub.Prop]) {
				exact = false
				break
			}
		}
		if exact {
			c.exact[prop] = true
		}
	}
	for _, prop := range onto.DataPropertyNames() {
		direct := shapes[prop]
		if len(direct) == 0 {
			continue
		}
		exact := true
		for _, sub := range onto.SubDataPropertiesOf(prop) {
			if sub == prop {
				continue
			}
			if !covered(direct, shapes[sub]) {
				exact = false
				break
			}
		}
		if exact {
			c.exact[prop] = true
		}
	}
}

// shape is the normalized form of one mapping assertion over a source
// that is a plain projection of one base table: which table, which
// subject/object term maps, and the source's WHERE conjuncts rendered
// without qualifiers.
type shape struct {
	ok      bool // single base table, no DISTINCT/GROUP/LIMIT/UNION
	table   string
	subj    string
	obj     string // "" for class assertions
	conjs   map[string]bool
	mapName string
}

// subsumes reports that a's rows are a superset of b's (same table and
// term maps, a's conditions a subset of b's), so the assertion b derives
// is contained in a's.
func (a shape) subsumes(b shape) bool {
	if !a.ok || !b.ok || a.table != b.table || a.subj != b.subj || a.obj != b.obj {
		return false
	}
	for cj := range a.conjs {
		if !b.conjs[cj] {
			return false
		}
	}
	return true
}

// sourceShape normalizes a triples map's logical source; ok=false when the
// source is not a plain projection of one base table.
func sourceShape(m *r2rml.TriplesMap) shape {
	table, where, ok := m.BaseTable()
	if !ok {
		return shape{}
	}
	conjs := map[string]bool{}
	for _, cj := range sqldb.Conjuncts(where) {
		conjs[sqldb.QualifyColumns(cj, "").String()] = true
	}
	return shape{ok: true, table: strings.ToLower(table), conjs: conjs}
}

// assertionShapes indexes every mapping assertion by asserted term.
func assertionShapes(mp *r2rml.Mapping) map[string][]shape {
	out := map[string][]shape{}
	for _, m := range mp.Maps {
		base := sourceShape(m)
		base.subj = m.Subject.String()
		base.mapName = m.Name
		for _, cls := range m.Classes {
			s := base
			out[cls] = append(out[cls], s)
		}
		for _, po := range m.POs {
			s := base
			s.obj = po.Object.String()
			out[po.Predicate] = append(out[po.Predicate], s)
		}
	}
	return out
}
