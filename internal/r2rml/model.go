package r2rml

import (
	"fmt"
	"strings"
	"sync"

	"npdbench/internal/rdf"
	"npdbench/internal/sqldb"
)

// TermMapKind distinguishes how a term map produces RDF terms.
type TermMapKind uint8

// Term map kinds.
const (
	// IRITemplate produces IRIs by template expansion.
	IRITemplate TermMapKind = iota
	// LiteralColumn produces literals directly from a column.
	LiteralColumn
	// LiteralTemplate produces literals by template expansion.
	LiteralTemplate
	// ConstantTerm produces a fixed term.
	ConstantTerm
)

// TermMap generates RDF terms from logical-table rows (rr:subjectMap /
// rr:objectMap in R2RML terms).
type TermMap struct {
	Kind     TermMapKind
	Template *Template // IRITemplate, LiteralTemplate
	Column   string    // LiteralColumn
	Datatype string    // literal datatype IRI ("" = derive from column type)
	Constant rdf.Term  // ConstantTerm
}

// IRIMap builds an IRI-template term map.
func IRIMap(template string) TermMap {
	return TermMap{Kind: IRITemplate, Template: MustParseTemplate(template)}
}

// ColumnMap builds a literal term map over a column.
func ColumnMap(column string) TermMap {
	return TermMap{Kind: LiteralColumn, Column: column}
}

// TypedColumnMap builds a literal term map with an explicit datatype.
func TypedColumnMap(column, datatype string) TermMap {
	return TermMap{Kind: LiteralColumn, Column: column, Datatype: datatype}
}

// ConstantMap builds a constant term map.
func ConstantMap(t rdf.Term) TermMap {
	return TermMap{Kind: ConstantTerm, Constant: t}
}

// Columns returns the source columns the term map reads.
func (tm TermMap) Columns() []string {
	switch tm.Kind {
	case IRITemplate, LiteralTemplate:
		return tm.Template.Columns
	case LiteralColumn:
		return []string{tm.Column}
	}
	return nil
}

// Generate produces the RDF term for a row; ok=false when a needed value is
// NULL (no triple is generated, per R2RML).
func (tm TermMap) Generate(get func(col string) (sqldb.Value, bool)) (rdf.Term, bool) {
	switch tm.Kind {
	case ConstantTerm:
		return tm.Constant, true
	case IRITemplate:
		s, ok := tm.Template.Expand(get)
		if !ok {
			return rdf.Term{}, false
		}
		return rdf.NewIRI(s), true
	case LiteralTemplate:
		s, ok := tm.Template.Expand(get)
		if !ok {
			return rdf.Term{}, false
		}
		return rdf.NewTypedLiteral(s, tm.Datatype), true
	case LiteralColumn:
		v, ok := get(tm.Column)
		if !ok || v.IsNull() {
			return rdf.Term{}, false
		}
		dt := tm.Datatype
		if dt == "" {
			dt = datatypeFor(v)
		}
		if dt == rdf.XSDString {
			return rdf.NewLiteral(v.String()), true
		}
		return rdf.NewTypedLiteral(v.String(), dt), true
	}
	return rdf.Term{}, false
}

func datatypeFor(v sqldb.Value) string {
	switch v.Kind {
	case sqldb.KindInt:
		return rdf.XSDInteger
	case sqldb.KindFloat:
		return rdf.XSDDouble
	case sqldb.KindBool:
		return rdf.XSDBoolean
	case sqldb.KindDate:
		return rdf.XSDDate
	}
	return rdf.XSDString
}

func (tm TermMap) String() string {
	switch tm.Kind {
	case ConstantTerm:
		return tm.Constant.String()
	case IRITemplate:
		return "<" + tm.Template.String() + ">"
	case LiteralTemplate:
		return "\"" + tm.Template.String() + "\""
	case LiteralColumn:
		if tm.Datatype != "" {
			return "{" + tm.Column + "}^^<" + tm.Datatype + ">"
		}
		return "{" + tm.Column + "}"
	}
	return "?"
}

// TermMapsCompatible is the conservative structural unification check
// shared by the unfolder's candidate walk and the static analyzer: false
// proves the two term maps can never generate the same RDF term; true
// means they may (full unification remains the caller's job). ac and bc
// give the value classes of a's and b's source columns (nil: all Any).
func TermMapsCompatible(a TermMap, ac ColumnClasses, b TermMap, bc ColumnClasses) bool {
	aIRI := a.Kind == IRITemplate || (a.Kind == ConstantTerm && a.Constant.IsIRI())
	bIRI := b.Kind == IRITemplate || (b.Kind == ConstantTerm && b.Constant.IsIRI())
	if aIRI != bIRI {
		return false
	}
	if a.Kind == IRITemplate && b.Kind == IRITemplate {
		return !a.Template.DisjointUnder(ac, b.Template, bc)
	}
	if a.Kind == ConstantTerm && b.Kind == IRITemplate {
		_, ok := b.Template.Match(a.Constant.Value)
		return ok
	}
	if b.Kind == ConstantTerm && a.Kind == IRITemplate {
		_, ok := a.Template.Match(b.Constant.Value)
		return ok
	}
	return true
}

// PredicateObject pairs a predicate IRI with an object term map.
type PredicateObject struct {
	Predicate string
	Object    TermMap
}

// TriplesMap maps one logical table to a set of triples: rr:TriplesMap.
type TriplesMap struct {
	// Name identifies the mapping assertion (mappingId).
	Name string
	// Table is the base-table logical table; empty when SQL is set.
	Table string
	// SQL is an R2RML view (rr:sqlQuery); empty when Table is set.
	SQL string
	// Subject generates the subject term.
	Subject TermMap
	// Classes lists rr:class IRIs asserted for every subject.
	Classes []string
	// POs lists the predicate–object maps.
	POs []PredicateObject

	parseOnce sync.Once
	parsedSQL *sqldb.SelectStmt
	parseErr  error
	baseTable string // see BaseTable; "" when the source is not one
}

// LogicalSQL returns the mapping's source query as a parsed SELECT
// statement (base tables become SELECT *). Safe for concurrent callers.
func (m *TriplesMap) LogicalSQL() (*sqldb.SelectStmt, error) {
	m.parseOnce.Do(func() {
		src := m.SQL
		if src == "" {
			if m.Table == "" {
				m.parseErr = fmt.Errorf("r2rml: mapping %s has no logical table", m.Name)
				return
			}
			src = "SELECT * FROM " + m.Table
		}
		stmt, err := sqldb.Parse(src)
		if err != nil {
			m.parseErr = fmt.Errorf("r2rml: mapping %s: %w", m.Name, err)
			return
		}
		m.parsedSQL = stmt
		m.baseTable = plainBaseTable(stmt)
	})
	return m.parsedSQL, m.parseErr
}

// BaseTable reduces the logical source to one base table when the source
// is a plain projection of it: a single FROM item that is a base table,
// every select item a star of it or a bare column under its own name, and
// no UNION, DISTINCT, GROUP BY, HAVING, ORDER BY, LIMIT or OFFSET. Rows of
// the source are then rows of the table, filtered by where (possibly
// nil), and each source column has the table column's type and
// constraints. ok=false when the source does not reduce.
func (m *TriplesMap) BaseTable() (table string, where sqldb.Expr, ok bool) {
	if m.SQL == "" {
		return m.Table, nil, m.Table != "" // SELECT * FROM Table, unparsed
	}
	stmt, err := m.LogicalSQL()
	if err != nil || m.baseTable == "" {
		return "", nil, false
	}
	return m.baseTable, stmt.Where, true
}

// SourceShape is the form in which sources are compared for containment
// (sqldb.Subsume): the lower-cased base table and the set of the WHERE
// conjuncts rendered without qualifiers. ok=false when BaseTable does not
// reduce the source.
func (m *TriplesMap) SourceShape() (table string, conjs map[string]bool, ok bool) {
	table, where, ok := m.BaseTable()
	if !ok {
		return "", nil, false
	}
	conjs = map[string]bool{}
	for _, cj := range sqldb.Conjuncts(where) {
		conjs[sqldb.QualifyColumns(cj, "").String()] = true
	}
	return strings.ToLower(table), conjs, true
}

// plainBaseTable implements the reduction behind BaseTable; "" when the
// statement is not a plain projection of one base table.
func plainBaseTable(stmt *sqldb.SelectStmt) string {
	if stmt.Union != nil || stmt.Distinct || len(stmt.GroupBy) > 0 ||
		stmt.Having != nil || stmt.Limit >= 0 || stmt.Offset > 0 ||
		len(stmt.OrderBy) > 0 || len(stmt.From) != 1 {
		return ""
	}
	bt, ok := stmt.From[0].(*sqldb.BaseTable)
	if !ok {
		return ""
	}
	for _, it := range stmt.Items {
		if it.Star {
			if it.Table != "" && !strings.EqualFold(it.Table, bt.Name) &&
				!strings.EqualFold(it.Table, bt.Alias) {
				return ""
			}
			continue
		}
		c, okc := it.Expr.(*sqldb.ColRef)
		if !okc || (it.Alias != "" && !strings.EqualFold(it.Alias, c.Name)) {
			return ""
		}
	}
	return bt.Name
}

// SourceDescription returns the textual source query.
func (m *TriplesMap) SourceDescription() string {
	if m.SQL != "" {
		return m.SQL
	}
	return "SELECT * FROM " + m.Table
}

// Mapping is a complete R2RML mapping document.
type Mapping struct {
	Prefixes rdf.PrefixMap
	Maps     []*TriplesMap
}

// NewMapping creates an empty mapping with standard prefixes.
func NewMapping() *Mapping {
	return &Mapping{Prefixes: rdf.StandardPrefixes()}
}

// Add appends a triples map.
func (mp *Mapping) Add(m *TriplesMap) { mp.Maps = append(mp.Maps, m) }

// AssertionCount counts mapping assertions the way the paper does: one per
// class and one per predicate–object map.
func (mp *Mapping) AssertionCount() int {
	n := 0
	for _, m := range mp.Maps {
		n += len(m.Classes) + len(m.POs)
	}
	return n
}

// MappedTerms returns the distinct ontology terms (classes + properties)
// that have at least one mapping assertion.
func (mp *Mapping) MappedTerms() []string {
	set := map[string]bool{}
	for _, m := range mp.Maps {
		for _, c := range m.Classes {
			set[c] = true
		}
		for _, po := range m.POs {
			set[po.Predicate] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	return out
}

// Stats describes mapping complexity (paper Sect. 5: 1190 assertions,
// avg 2.6 SPJ unions, 1.7 joins per SPJ).
type Stats struct {
	TriplesMaps     int
	Assertions      int
	MappedTerms     int
	AvgUnionsPerSQL float64
	AvgJoinsPerSPJ  float64
}

// Stats computes mapping statistics.
func (mp *Mapping) Stats() Stats {
	s := Stats{TriplesMaps: len(mp.Maps), Assertions: mp.AssertionCount(),
		MappedTerms: len(mp.MappedTerms())}
	totalUnions, totalJoins, spjs := 0, 0, 0
	for _, m := range mp.Maps {
		stmt, err := m.LogicalSQL()
		if err != nil {
			continue
		}
		met := stmt.Metrics()
		totalUnions += met.Unions + 1
		totalJoins += met.Joins + met.LeftJoins
		spjs += met.Unions + 1
	}
	if len(mp.Maps) > 0 {
		s.AvgUnionsPerSQL = float64(totalUnions) / float64(len(mp.Maps))
	}
	if spjs > 0 {
		s.AvgJoinsPerSPJ = float64(totalJoins) / float64(spjs)
	}
	return s
}

// String renders the mapping in the compact textual syntax.
func (mp *Mapping) String() string {
	var sb strings.Builder
	for _, m := range mp.Maps {
		fmt.Fprintf(&sb, "mappingId %s\n", m.Name)
		fmt.Fprintf(&sb, "source    %s\n", m.SourceDescription())
		fmt.Fprintf(&sb, "target    %s", m.Subject)
		for _, c := range m.Classes {
			fmt.Fprintf(&sb, " a <%s> ;", c)
		}
		for _, po := range m.POs {
			fmt.Fprintf(&sb, " <%s> %s ;", po.Predicate, po.Object)
		}
		sb.WriteString(" .\n\n")
	}
	return sb.String()
}
