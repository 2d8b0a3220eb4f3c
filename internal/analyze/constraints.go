package analyze

import (
	"strings"

	"npdbench/internal/r2rml"
	"npdbench/internal/sqldb"
)

// Constraints is the optimization half of the static analysis: database
// key, NULL and value-class metadata, in the form the unfolder consumes
// at query time (Hovland et al.'s OBDA constraints).
//
//   - Unique keys turn into virtual functional dependencies: two table
//     instances joined on a subject template whose columns cover a key of
//     the table denote the same row and collapse into one instance — even
//     when they come from different mapping assertions.
//   - NOT NULL columns let the unfolder elide the R2RML NULL guards it
//     otherwise emits for every term-map column.
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

// ConstraintStats summarizes a Constraints artifact for reporting.
type ConstraintStats struct {
	Tables         int `json:"tables"`
	Keys           int `json:"keys"`
	NotNullColumns int `json:"notNullColumns"`
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
	return s
}

// DeriveConstraints builds the Constraints artifact from the catalog's
// PK/UNIQUE/NOT NULL metadata and column types. It is cheap (one pass
// over the schema) and runs once at engine load.
func DeriveConstraints(db *sqldb.Database) *Constraints {
	c := &Constraints{
		keys:    map[string][][]string{},
		notNull: map[string]map[string]bool{},
		classes: map[string]r2rml.ColumnClasses{},
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
	return c
}
