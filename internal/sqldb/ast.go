package sqldb

import (
	"fmt"
	"strings"
)

// ---- SQL expression AST ----

// Expr is a SQL scalar expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

// Lit is a literal value.
type Lit struct {
	Val Value
}

// BinOp kinds.
type BinOpKind uint8

// Binary operators.
const (
	OpEq BinOpKind = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat
)

func (k BinOpKind) String() string {
	switch k {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpConcat:
		return "||"
	}
	return "?"
}

// BinOp is a binary operation.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

// IsNullExpr tests e IS [NOT] NULL.
type IsNullExpr struct {
	E      Expr
	Negate bool
}

// InExpr tests e IN (list).
type InExpr struct {
	E      Expr
	List   []Expr
	Negate bool
}

// LikeExpr is the SQL LIKE predicate with % and _ wildcards.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

// FuncExpr is a scalar or aggregate function call.
type FuncExpr struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*ColRef) exprNode()     {}
func (*Lit) exprNode()        {}
func (*BinOp) exprNode()      {}
func (*NotExpr) exprNode()    {}
func (*IsNullExpr) exprNode() {}
func (*InExpr) exprNode()     {}
func (*LikeExpr) exprNode()   {}
func (*FuncExpr) exprNode()   {}

func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (l *Lit) String() string {
	if l.Val.Kind == KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

func (b *BinOp) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

func (n *NotExpr) String() string { return "NOT (" + n.E.String() + ")" }

func (e *IsNullExpr) String() string {
	if e.Negate {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	op := " IN ("
	if e.Negate {
		op = " NOT IN ("
	}
	return e.E.String() + op + strings.Join(items, ", ") + ")"
}

func (e *LikeExpr) String() string {
	op := " LIKE "
	if e.Negate {
		op = " NOT LIKE "
	}
	return e.E.String() + op + e.Pattern.String()
}

func (f *FuncExpr) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// ---- Query AST ----

// SelectItem is one projection item.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinKind distinguishes the supported join flavours.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
	JoinNatural
)

func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT"
	case JoinCross:
		return "CROSS"
	case JoinNatural:
		return "NATURAL"
	}
	return "INNER"
}

// TableRef is a FROM-clause item.
type TableRef interface{ tableRefNode() }

// BaseTable references a stored table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Query *SelectStmt
	Alias string
}

// JoinRef combines two table refs.
type JoinRef struct {
	Kind JoinKind
	L, R TableRef
	On   Expr // nil for cross/natural
}

func (*BaseTable) tableRefNode()     {}
func (*SubqueryTable) tableRefNode() {}
func (*JoinRef) tableRefNode()       {}

// SelectStmt is a (possibly compound) SELECT statement. Compound statements
// chain via Union.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma list (implicit cross joins)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 if absent
	Offset   int

	Union    *SelectStmt // next arm of a UNION, nil if none
	UnionAll bool        // whether the link to Union is UNION ALL
}

// NewSelect returns a SELECT with no LIMIT.
func NewSelect() *SelectStmt { return &SelectStmt{Limit: -1} }

// String renders the statement back to SQL (diagnostics, mapping dumps and
// the paper's Simplicity-U metric rely on it).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	s.writeOne(&sb)
	for u := s.Union; u != nil; u = u.Union {
		if s.UnionAll {
			sb.WriteString(" UNION ALL ")
		} else {
			sb.WriteString(" UNION ")
		}
		u.writeOne(&sb)
	}
	return sb.String()
}

func (s *SelectStmt) writeOne(sb *strings.Builder) {
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			if it.Table != "" {
				sb.WriteString(it.Table + ".*")
			} else {
				sb.WriteByte('*')
			}
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeTableRef(sb, tr)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(sb, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(sb, " OFFSET %d", s.Offset)
	}
}

func writeTableRef(sb *strings.Builder, tr TableRef) {
	switch t := tr.(type) {
	case *BaseTable:
		sb.WriteString(t.Name)
		if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
			sb.WriteString(" AS " + t.Alias)
		}
	case *SubqueryTable:
		sb.WriteString("(" + t.Query.String() + ") AS " + t.Alias)
	case *JoinRef:
		writeTableRef(sb, t.L)
		switch t.Kind {
		case JoinInner:
			sb.WriteString(" JOIN ")
		case JoinLeft:
			sb.WriteString(" LEFT JOIN ")
		case JoinCross:
			sb.WriteString(" CROSS JOIN ")
		case JoinNatural:
			sb.WriteString(" NATURAL JOIN ")
		}
		writeTableRef(sb, t.R)
		if t.On != nil {
			sb.WriteString(" ON " + t.On.String())
		}
	}
}

// Metrics used by the paper's "Simplicity U-Query" quality measure
// (Table 1): joins, left joins, unions and inner queries of the unfolded SQL.

// SQLMetrics summarizes structural complexity of a SQL statement.
type SQLMetrics struct {
	Joins        int
	LeftJoins    int
	Unions       int
	InnerQueries int
}

// Metrics computes the structural complexity of s (recursively).
func (s *SelectStmt) Metrics() SQLMetrics {
	var m SQLMetrics
	for cur := s; cur != nil; cur = cur.Union {
		if cur != s {
			m.Unions++
		}
		for _, tr := range cur.From {
			countRef(tr, &m)
		}
		// Comma-separated FROM items are implicit joins.
		if len(cur.From) > 1 {
			m.Joins += len(cur.From) - 1
		}
	}
	return m
}

func countRef(tr TableRef, m *SQLMetrics) {
	switch t := tr.(type) {
	case *SubqueryTable:
		m.InnerQueries++
		sub := t.Query.Metrics()
		m.Joins += sub.Joins
		m.LeftJoins += sub.LeftJoins
		m.Unions += sub.Unions
		m.InnerQueries += sub.InnerQueries
	case *JoinRef:
		if t.Kind == JoinLeft {
			m.LeftJoins++
		} else {
			m.Joins++
		}
		countRef(t.L, m)
		countRef(t.R, m)
	}
}
