package sqldb

import (
	"fmt"
	"strings"
	"time"
)

// OpProfile is one node of the EXPLAIN ANALYZE operator tree: the executor
// records, per physical operator, its output cardinality, input
// cardinalities, and the algorithm-specific work measures (hash-build
// sizes, probe counts, rows examined). Collected by Prepared.ExecuteProfiled;
// rendered by Render. All setters are nil-receiver-safe so instrumentation
// sites need no profiling-enabled branches.
type OpProfile struct {
	// Op is the physical operator: "query", "union", "select", "scan",
	// "subquery", "filter", "hash join", "merge join", "nested loop",
	// "left join", "natural join", "aggregate", "project", "distinct",
	// "sort", "limit".
	Op string `json:"op"`
	// Detail carries the operand: table name, predicate, key count.
	Detail string `json:"detail,omitempty"`
	// Rows is the operator's output cardinality.
	Rows int `json:"rows"`
	// RowsIn is the input cardinality for row-reducing operators
	// (filter, distinct, limit); -1 when not applicable.
	RowsIn int `json:"rows_in,omitempty"`
	// LeftRows/RightRows are the join input cardinalities; -1 when n/a.
	LeftRows  int `json:"left_rows,omitempty"`
	RightRows int `json:"right_rows,omitempty"`
	// BuildRows counts rows fed into the operator's build structure: the
	// hash table of a hash join (its ephemeral index), or the rows sorted
	// by a merge join.
	BuildRows int `json:"build_rows,omitempty"`
	// Probes counts point lookups against the build structure (hash join
	// probe-side rows) or, for a nested loop, the row pairs examined — the
	// executor's "index probe vs scan" measure.
	Probes int `json:"probes,omitempty"`
	// TimeUS is the operator's wall time in microseconds, recorded only
	// where the executor times work explicitly (parallel union arms); 0
	// means not measured.
	TimeUS int64 `json:"time_us,omitempty"`

	Children []*OpProfile `json:"children,omitempty"`
}

func newOp(op, detail string) *OpProfile {
	return &OpProfile{Op: op, Detail: detail, RowsIn: -1, LeftRows: -1, RightRows: -1}
}

// SetRows records the output cardinality.
func (p *OpProfile) SetRows(n int) {
	if p != nil {
		p.Rows = n
	}
}

// SetInOut records a row-reducing operator's input and output counts.
func (p *OpProfile) SetInOut(in, out int) {
	if p != nil {
		p.RowsIn, p.Rows = in, out
	}
}

// SetJoin records join cardinalities and work measures.
func (p *OpProfile) SetJoin(left, right, out, build, probes int) {
	if p != nil {
		p.LeftRows, p.RightRows, p.Rows = left, right, out
		p.BuildRows, p.Probes = build, probes
	}
}

// SetTime records the operator's wall time.
func (p *OpProfile) SetTime(d time.Duration) {
	if p != nil {
		p.TimeUS = d.Microseconds()
	}
}

// SetDetail replaces the operand description.
func (p *OpProfile) SetDetail(d string) {
	if p != nil {
		p.Detail = d
	}
}

// TotalOps counts the nodes of the tree.
func (p *OpProfile) TotalOps() int {
	if p == nil {
		return 0
	}
	n := 1
	for _, c := range p.Children {
		n += c.TotalOps()
	}
	return n
}

// TotalRows sums output rows over the whole tree (a work proxy: every row
// an operator emitted had to be materialized).
func (p *OpProfile) TotalRows() int {
	if p == nil {
		return 0
	}
	n := p.Rows
	for _, c := range p.Children {
		n += c.TotalRows()
	}
	return n
}

// Find returns the first node with the given Op in a depth-first walk.
func (p *OpProfile) Find(op string) *OpProfile {
	if p == nil {
		return nil
	}
	if p.Op == op {
		return p
	}
	for _, c := range p.Children {
		if hit := c.Find(op); hit != nil {
			return hit
		}
	}
	return nil
}

// Render draws the EXPLAIN ANALYZE tree.
func (p *OpProfile) Render() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	p.render(&sb, "", true, true)
	return sb.String()
}

func (p *OpProfile) render(sb *strings.Builder, prefix string, last, root bool) {
	line := p.Op
	if p.Detail != "" {
		line += " " + p.Detail
	}
	line += " (" + p.cardinality() + ")"
	if p.TimeUS > 0 {
		line += fmt.Sprintf(" t=%dus", p.TimeUS)
	}
	if root {
		sb.WriteString(line + "\n")
	} else {
		branch := "├─ "
		if last {
			branch = "└─ "
		}
		sb.WriteString(prefix + branch + line + "\n")
	}
	childPrefix := prefix
	if !root {
		if last {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range p.Children {
		c.render(sb, childPrefix, i == len(p.Children)-1, false)
	}
}

// cardinality formats the row counts appropriate to the operator shape.
func (p *OpProfile) cardinality() string {
	var s string
	switch {
	case p.LeftRows >= 0 && p.RightRows >= 0:
		s = fmt.Sprintf("%d × %d → %d rows", p.LeftRows, p.RightRows, p.Rows)
		if p.BuildRows > 0 {
			s += fmt.Sprintf(", build=%d", p.BuildRows)
		}
		if p.Probes > 0 {
			s += fmt.Sprintf(", probes=%d", p.Probes)
		}
	case p.RowsIn >= 0:
		s = fmt.Sprintf("%d → %d rows", p.RowsIn, p.Rows)
	default:
		s = fmt.Sprintf("rows=%d", p.Rows)
	}
	return s
}

// ---- execCtx profiling hooks -------------------------------------------

var noRestore = func() {}

// pushOp appends a child operator under the current profile node and makes
// it current until the returned restore function runs. Disabled profiling
// returns a nil node (whose setters no-op) and a shared no-op restore, so
// the off path allocates nothing.
func (ctx *execCtx) pushOp(op, detail string) (*OpProfile, func()) {
	if ctx.prof == nil {
		return nil, noRestore
	}
	node := newOp(op, detail)
	parent := ctx.prof
	parent.Children = append(parent.Children, node)
	ctx.prof = node
	return node, func() { ctx.prof = parent }
}

// addOp appends a leaf operator under the current profile node.
func (ctx *execCtx) addOp(op, detail string) *OpProfile {
	if ctx.prof == nil {
		return nil
	}
	node := newOp(op, detail)
	ctx.prof.Children = append(ctx.prof.Children, node)
	return node
}

// ProfileSelect executes a parsed SELECT statement like ExecSelect while
// collecting the operator-level execution profile (EXPLAIN ANALYZE): per
// operator, rows in/out, join algorithm, hash-build size and probe count.
func (db *Database) ProfileSelect(s *SelectStmt) (*Result, *OpProfile, error) {
	return db.ProfileSelectOpts(s, ExecOptions{})
}

// ProfileSelectOpts prepares a parsed SELECT statement and executes it
// once under the given execution options with profiling on (see
// Prepared.ExecuteProfiled).
func (db *Database) ProfileSelectOpts(s *SelectStmt, opt ExecOptions) (*Result, *OpProfile, error) {
	p, err := Prepare(db, s)
	if err != nil {
		return nil, nil, err
	}
	return p.ExecuteProfiled(opt)
}
