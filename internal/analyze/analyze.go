package analyze

import (
	"fmt"
	"strings"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

// Input bundles the three artifacts the analyzer cross-checks.
type Input struct {
	Mapping  *r2rml.Mapping
	Ontology *owl.Ontology
	DB       *sqldb.Database
}

// Analysis is the result of one Run: the lint report and the optimization
// constraints.
type Analysis struct {
	Report      *Report
	Constraints *Constraints
}

// Run executes the full static-analysis pass. It never fails: artifact
// problems become diagnostics, not errors.
func Run(in Input) *Analysis {
	rep := &Report{}
	if in.Mapping != nil && in.DB != nil {
		checkSources(in, rep)
	}
	if in.Mapping != nil && in.Ontology != nil {
		checkCoverage(in, rep)
		checkRedundancy(in, rep)
	}
	if in.Mapping != nil {
		checkJoinability(in, rep)
	}
	rep.sortDiagnostics()
	return &Analysis{
		Report:      rep,
		Constraints: DeriveConstraints(in.Mapping, in.Ontology, in.DB),
	}
}

// ---- source SQL vs. schema ----

// colSet abstracts the columns a logical source provides.
type colSet struct {
	all  bool // SELECT * over (partly) unknown relations
	cols map[string]bool
}

func (cs colSet) has(col string) bool { return cs.all || cs.cols[strings.ToLower(col)] }

// fromScope resolves table aliases of one SELECT to schema definitions
// (nil def = derived table, checked recursively but opaque here).
type fromScope struct {
	aliases map[string]*sqldb.TableDef
}

func checkSources(in Input, rep *Report) {
	for _, m := range in.Mapping.Maps {
		stmt, err := m.LogicalSQL()
		if err != nil {
			rep.add(Diagnostic{Code: CodeInvalidSource, Severity: SevError,
				Mapping: m.Name, Detail: err.Error()})
			continue
		}
		var avail colSet
		for arm := stmt; arm != nil; arm = arm.Union {
			a := checkStmt(in, rep, m.Name, arm)
			if arm == stmt {
				avail = a // union arms project the same layout as the first
			}
		}
		checkTerm := func(tm r2rml.TermMap, role string) {
			for _, col := range tm.Columns() {
				if !avail.has(col) {
					rep.add(Diagnostic{Code: CodeMissingColumn, Severity: SevError,
						Mapping: m.Name,
						Detail:  fmt.Sprintf("%s term map references column %q not provided by the logical source", role, col)})
				}
			}
		}
		checkTerm(m.Subject, "subject")
		for _, po := range m.POs {
			checkTerm(po.Object, "object <"+po.Predicate+">")
		}
	}
}

// checkStmt verifies one SELECT arm against the schema and returns its
// output columns. Derived tables are checked recursively.
func checkStmt(in Input, rep *Report, mapName string, stmt *sqldb.SelectStmt) colSet {
	scope := fromScope{aliases: map[string]*sqldb.TableDef{}}
	var onExprs []sqldb.Expr
	var walkFrom func(tr sqldb.TableRef)
	walkFrom = func(tr sqldb.TableRef) {
		switch t := tr.(type) {
		case *sqldb.BaseTable:
			var def *sqldb.TableDef
			if tbl := in.DB.Table(t.Name); tbl != nil {
				def = tbl.Def
			} else {
				rep.add(Diagnostic{Code: CodeMissingTable, Severity: SevError,
					Mapping: mapName,
					Detail:  fmt.Sprintf("table %q not in schema", t.Name)})
			}
			alias := t.Alias
			if alias == "" {
				alias = t.Name
			}
			scope.aliases[strings.ToLower(alias)] = def
		case *sqldb.SubqueryTable:
			for arm := t.Query; arm != nil; arm = arm.Union {
				checkStmt(in, rep, mapName, arm)
			}
			scope.aliases[strings.ToLower(t.Alias)] = nil
		case *sqldb.JoinRef:
			walkFrom(t.L)
			walkFrom(t.R)
			if t.On != nil {
				onExprs = append(onExprs, t.On)
			}
		}
	}
	for _, tr := range stmt.From {
		walkFrom(tr)
	}
	hasUnknown := false
	for _, def := range scope.aliases {
		if def == nil {
			hasUnknown = true
		}
	}

	resolve := func(c *sqldb.ColRef) {
		if c.Table != "" {
			def, ok := scope.aliases[strings.ToLower(c.Table)]
			if !ok {
				rep.add(Diagnostic{Code: CodeMissingColumn, Severity: SevError,
					Mapping: mapName,
					Detail:  fmt.Sprintf("column %s references unknown table alias %q", c, c.Table)})
				return
			}
			if def != nil && def.ColIndex(c.Name) < 0 {
				rep.add(Diagnostic{Code: CodeMissingColumn, Severity: SevError,
					Mapping: mapName,
					Detail:  fmt.Sprintf("column %q not in table %s", c.Name, def.Name)})
			}
			return
		}
		if hasUnknown {
			return
		}
		for _, def := range scope.aliases {
			if def != nil && def.ColIndex(c.Name) >= 0 {
				return
			}
		}
		rep.add(Diagnostic{Code: CodeMissingColumn, Severity: SevError,
			Mapping: mapName,
			Detail:  fmt.Sprintf("column %q not in any source table", c.Name)})
	}
	var exprs []sqldb.Expr
	for _, it := range stmt.Items {
		if !it.Star && it.Expr != nil {
			exprs = append(exprs, it.Expr)
		}
	}
	exprs = append(exprs, onExprs...)
	if stmt.Where != nil {
		exprs = append(exprs, stmt.Where)
	}
	exprs = append(exprs, stmt.GroupBy...)
	if stmt.Having != nil {
		exprs = append(exprs, stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		for _, c := range sqldb.ColumnRefs(e) {
			resolve(c)
		}
	}

	// Join support: equality conditions between two base tables should be
	// backed by an index-able key or a declared foreign key.
	joinConds := sqldb.Conjuncts(stmt.Where)
	for _, on := range onExprs {
		joinConds = append(joinConds, sqldb.Conjuncts(on)...)
	}
	for _, cj := range joinConds {
		b, ok := cj.(*sqldb.BinOp)
		if !ok || b.Op != sqldb.OpEq {
			continue
		}
		l, okL := b.L.(*sqldb.ColRef)
		r, okR := b.R.(*sqldb.ColRef)
		if !okL || !okR || l.Table == "" || r.Table == "" ||
			strings.EqualFold(l.Table, r.Table) {
			continue
		}
		ld := scope.aliases[strings.ToLower(l.Table)]
		rd := scope.aliases[strings.ToLower(r.Table)]
		if ld == nil || rd == nil {
			continue
		}
		if !joinSupported(in.DB, ld, l.Name, rd, r.Name) {
			rep.add(Diagnostic{Code: CodeUnsupportedJoin, Severity: SevWarning,
				Mapping: mapName,
				Detail:  fmt.Sprintf("join %s = %s has no supporting key or foreign key", l, r)})
		}
	}

	// Output columns.
	out := colSet{cols: map[string]bool{}}
	for _, it := range stmt.Items {
		switch {
		case it.Star && it.Table == "":
			if hasUnknown {
				out.all = true
			}
			for _, def := range scope.aliases {
				if def == nil {
					continue
				}
				for _, col := range def.Columns {
					out.cols[strings.ToLower(col.Name)] = true
				}
			}
		case it.Star:
			def, ok := scope.aliases[strings.ToLower(it.Table)]
			if !ok || def == nil {
				out.all = true
				continue
			}
			for _, col := range def.Columns {
				out.cols[strings.ToLower(col.Name)] = true
			}
		case it.Alias != "":
			out.cols[strings.ToLower(it.Alias)] = true
		default:
			if c, ok := it.Expr.(*sqldb.ColRef); ok {
				out.cols[strings.ToLower(c.Name)] = true
			}
		}
	}
	return out
}

// joinSupported reports whether an equality join between two table columns
// is backed by catalog metadata: a key whose leading column is joined (an
// index lookup) or a declared foreign key covering the pair.
func joinSupported(db *sqldb.Database, ld *sqldb.TableDef, lcol string, rd *sqldb.TableDef, rcol string) bool {
	keyHead := func(def *sqldb.TableDef, col string) bool {
		idx := def.ColIndex(col)
		if idx < 0 {
			return false
		}
		if len(def.PrimaryKey) > 0 && def.PrimaryKey[0] == idx {
			return true
		}
		for _, u := range def.Uniques {
			if len(u) > 0 && u[0] == idx {
				return true
			}
		}
		return false
	}
	fkCovers := func(def *sqldb.TableDef, col string, refDef *sqldb.TableDef, refCol string) bool {
		for _, fk := range def.ForeignKeys {
			if !strings.EqualFold(fk.RefTable, refDef.Name) {
				continue
			}
			for i, ci := range fk.Columns {
				if i >= len(fk.RefColumns) {
					break
				}
				if strings.EqualFold(def.Columns[ci].Name, col) &&
					strings.EqualFold(refDef.Columns[fk.RefColumns[i]].Name, refCol) {
					return true
				}
			}
		}
		return false
	}
	return keyHead(ld, lcol) || keyHead(rd, rcol) ||
		fkCovers(ld, lcol, rd, rcol) || fkCovers(rd, rcol, ld, lcol)
}

// ---- ontology vs. mapping coverage ----

func checkCoverage(in Input, rep *Report) {
	onto := in.Ontology
	mapped := map[string]bool{}
	for _, t := range in.Mapping.MappedTerms() {
		mapped[t] = true
	}

	// Dead mappings: asserted terms the ontology does not declare.
	for _, m := range in.Mapping.Maps {
		for _, cls := range m.Classes {
			if !onto.HasClass(cls) {
				rep.add(Diagnostic{Code: CodeDeadMapping, Severity: SevWarning,
					Mapping: m.Name, Term: cls,
					Detail: "mapping asserts a class the ontology does not declare"})
			}
		}
		for _, po := range m.POs {
			if !onto.HasObjectProperty(po.Predicate) && !onto.HasDataProperty(po.Predicate) {
				rep.add(Diagnostic{Code: CodeDeadMapping, Severity: SevWarning,
					Mapping: m.Name, Term: po.Predicate,
					Detail: "mapping asserts a property the ontology does not declare"})
			}
		}
	}

	// Unmapped terms: nothing in the subsumption cone has a mapping, so
	// queries over the term are provably empty.
	for _, cls := range onto.ClassNames() {
		derivable := false
		for _, sub := range onto.SubConceptsOf(owl.NamedConcept(cls)) {
			if sub.IsNamed() && mapped[sub.Class] {
				derivable = true
				break
			}
			if !sub.IsNamed() && mapped[sub.Prop] {
				derivable = true
				break
			}
		}
		if !derivable {
			rep.add(Diagnostic{Code: CodeUnmappedTerm, Severity: SevInfo, Term: cls,
				Detail: "class has no mapping, directly or via subsumed terms"})
		}
	}
	for _, prop := range onto.ObjectPropertyNames() {
		derivable := false
		for _, sub := range onto.SubPropertiesOf(owl.PropRef{Prop: prop}) {
			if mapped[sub.Prop] {
				derivable = true
				break
			}
		}
		if !derivable {
			rep.add(Diagnostic{Code: CodeUnmappedTerm, Severity: SevInfo, Term: prop,
				Detail: "object property has no mapping, directly or via subsumed terms"})
		}
	}
	for _, prop := range onto.DataPropertyNames() {
		derivable := false
		for _, sub := range onto.SubDataPropertiesOf(prop) {
			if mapped[sub] {
				derivable = true
				break
			}
		}
		if !derivable {
			rep.add(Diagnostic{Code: CodeUnmappedTerm, Severity: SevInfo, Term: prop,
				Detail: "data property has no mapping, directly or via subsumed terms"})
		}
	}
}

// ---- template joinability ----

// checkJoinability flags object IRI templates disjoint from every subject
// template in the mapping: such objects can never be joined with a typed
// resource, which almost always indicates a template typo.
func checkJoinability(in Input, rep *Report) {
	var subjects []r2rml.TermMap
	for _, m := range in.Mapping.Maps {
		subjects = append(subjects, m.Subject)
	}
	for _, m := range in.Mapping.Maps {
		for _, po := range m.POs {
			if po.Object.Kind != r2rml.IRITemplate {
				continue
			}
			joinable := false
			for _, s := range subjects {
				if r2rml.TermMapsCompatible(po.Object, nil, s, nil) {
					joinable = true
					break
				}
			}
			if !joinable {
				rep.add(Diagnostic{Code: CodeUnjoinableObject, Severity: SevWarning,
					Mapping: m.Name, Term: po.Predicate,
					Detail: fmt.Sprintf("object template %s never unifies with any subject template", po.Object)})
			}
		}
	}
}

// ---- T-mapping redundancy ----

// checkRedundancy flags direct mapping assertions that T-mapping
// saturation re-derives from a strictly subsumed term over the same rows:
// the direct assertion contributes no triples and only inflates the
// saturated mapping.
func checkRedundancy(in Input, rep *Report) {
	onto := in.Ontology
	shapes := assertionShapes(in.Mapping)
	seen := map[string]bool{} // one diagnostic per (term, asserting mapping)
	flag := func(term, subTerm string, direct, sub []shape) {
		for _, a := range direct {
			k := term + "\x00" + a.mapName
			if seen[k] {
				continue
			}
			for _, b := range sub {
				if b.subsumes(a) && !(b.mapName == a.mapName && subTerm == term) {
					seen[k] = true
					rep.add(Diagnostic{Code: CodeRedundantAssertion, Severity: SevInfo,
						Mapping: a.mapName, Term: term,
						Detail: fmt.Sprintf("assertion subsumed by the <%s> assertion in mapping %s", subTerm, b.mapName)})
					break
				}
			}
		}
	}
	for _, cls := range onto.ClassNames() {
		direct := shapes[cls]
		if len(direct) == 0 {
			continue
		}
		for _, sub := range onto.SubConceptsOf(owl.NamedConcept(cls)) {
			if !sub.IsNamed() || sub.Class == cls {
				continue
			}
			flag(cls, sub.Class, direct, shapes[sub.Class])
		}
	}
	for _, prop := range onto.ObjectPropertyNames() {
		direct := shapes[prop]
		if len(direct) == 0 {
			continue
		}
		for _, sub := range onto.SubPropertiesOf(owl.PropRef{Prop: prop}) {
			if sub.Inverse || sub.Prop == prop {
				continue
			}
			flag(prop, sub.Prop, direct, shapes[sub.Prop])
		}
	}
	for _, prop := range onto.DataPropertyNames() {
		direct := shapes[prop]
		if len(direct) == 0 {
			continue
		}
		for _, sub := range onto.SubDataPropertiesOf(prop) {
			if sub == prop {
				continue
			}
			flag(prop, sub, direct, shapes[sub])
		}
	}
}
