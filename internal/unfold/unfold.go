// Package unfold implements phase 3 of the OBDA query-answering workflow:
// translating a rewritten UCQ into a single SQL statement over the mapped
// database. The translation applies the semantic query optimizations the
// paper's benchmark is designed to exercise:
//
//   - IRI-template compatibility pruning: a union arm whose join or
//     constant unification is impossible at the template level is dropped
//     before reaching the database (with constraints, placeholders over
//     INT/DATE columns are known to expand to [0-9-]* only); template arc
//     consistency deletes the candidates no combination can use before
//     the walk starts;
//   - self-join elimination: atoms over the same logical table joined on
//     the same subject template collapse into a single table instance
//     (essential for OBDA mappings, where each data property of a wide
//     table is a separate mapping assertion);
//   - NOT NULL filters per R2RML semantics (no term from NULL).
//
// Every union arm produces the same output layout: for each answer
// variable v, three columns — the lexical form, a term-kind tag, and a
// datatype IRI — so that heterogeneous arms union cleanly and the engine
// can reconstruct RDF terms from rows.
package unfold

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

// Term-kind tags emitted in the *_t output columns.
const (
	TagIRI     = 0
	TagLiteral = 1
	TagTyped   = 2
)

// PushFilter is a SPARQL filter fragment the engine determined safe to push
// into SQL: a comparison between a variable and a constant.
type PushFilter struct {
	Var string
	Op  string // "=", "!=", "<", "<=", ">", ">="
	Val rdf.Term
}

// Unfolded is the result of unfolding a UCQ.
type Unfolded struct {
	// Stmt is the complete SQL statement (a UNION ALL of SPJ arms); nil
	// when every arm was pruned (the query has no answers).
	Stmt *sqldb.SelectStmt
	// Vars lists the answer variables; output columns come in triples
	// (v, v_t, v_dt) in this order.
	Vars []string
	// Arms is the number of SPJ arms emitted.
	Arms int
	// PrunedArms counts mapping combinations discarded by template
	// incompatibility (the SQO measure).
	PrunedArms int
	// SelfJoinsEliminated counts merged table instances.
	SelfJoinsEliminated int
	// SubsumedArms counts arms dropped because another arm provably
	// returns a superset (constraint-driven, requires Opts.Cons).
	SubsumedArms int
	// StaticPrunedCands counts mapping-assertion candidates deleted by the
	// pre-walk static analysis (own-constant and arc-consistency proofs)
	// before the combinatorial candidate walk ran.
	StaticPrunedCands int
	// FiltersPushed[i] reports whether filters[i] was translated into SQL
	// in every emitted arm. Callers that skip re-checking filters on the
	// translated results (e.g. aggregate pushdown) must require true.
	FiltersPushed []bool
}

// VarInfo describes how a variable's values are produced across the arms.
type VarInfo struct {
	// AlwaysLiteral is true when no arm produces an IRI for the variable.
	AlwaysLiteral bool
	// UniformDatatype is the datatype IRI shared by every arm ("" when
	// arms disagree or when the datatype is derived from column types).
	UniformDatatype string
	// DatatypeKnown reports whether UniformDatatype is meaningful.
	DatatypeKnown bool
}

// VarInfos inspects the emitted arms' constant tag/datatype columns and
// summarizes them per answer variable (aggregate pushdown uses this to
// decide whether MIN/MAX/SUM can run on the lexical column directly).
func (u *Unfolded) VarInfos() map[string]VarInfo {
	out := make(map[string]VarInfo, len(u.Vars))
	if u.Stmt == nil {
		return out
	}
	for i, v := range u.Vars {
		info := VarInfo{AlwaysLiteral: true, DatatypeKnown: true}
		first := true
		for arm := u.Stmt; arm != nil; arm = arm.Union {
			tagItem, dtItem := arm.Items[3*i+1], arm.Items[3*i+2]
			tagLit, ok1 := tagItem.Expr.(*sqldb.Lit)
			dtLit, ok2 := dtItem.Expr.(*sqldb.Lit)
			if !ok1 || !ok2 {
				info = VarInfo{}
				break
			}
			if tagLit.Val.I == TagIRI {
				info.AlwaysLiteral = false
			}
			dt := dtLit.Val.S
			if first {
				info.UniformDatatype = dt
				first = false
			} else if info.UniformDatatype != dt {
				info.DatatypeKnown = false
				info.UniformDatatype = ""
			}
		}
		out[v] = info
	}
	return out
}

// Metrics exposes the paper's Simplicity-U measures for the unfolded SQL.
func (u *Unfolded) Metrics() sqldb.SQLMetrics {
	if u.Stmt == nil {
		return sqldb.SQLMetrics{}
	}
	return u.Stmt.Metrics()
}

// candidate pairs an atom with one mapping assertion able to produce it.
type candidate struct {
	m       *r2rml.TriplesMap
	subject r2rml.TermMap
	object  r2rml.TermMap // zero for class atoms
	isClass bool
}

// Opts configures the unfolding.
type Opts struct {
	// Cons enables the constraint-driven semantic query optimizations of
	// the static analyzer (Hovland et al.'s OBDA constraints). Nil
	// disables them.
	//
	//   - key-based self-join elimination: atoms whose logical sources
	//     reduce to the same base table and whose shared subject template
	//     covers a PK/UNIQUE key of that table denote the same row, so
	//     their instances merge even across different mapping assertions
	//     (the per-attribute mapping style of the NPD benchmark otherwise
	//     yields one subquery per data property);
	//   - NOT NULL guard elision for columns the catalog declares NOT NULL;
	//   - typed template disjointness: a placeholder over an INT or DATE
	//     column of a plain single-table source only expands to [0-9-]*,
	//     so the candidate walk, static arc consistency and join
	//     unification prune template pairs that untyped placeholders would
	//     let collide (e.g. wellbore/{id} vs wellbore/{id}/core/{n});
	//   - subsumed-arm elimination: a union arm whose FROM/projection
	//     equals another's and whose conditions are a superset is dropped
	//     (sound under the engine's set semantics).
	Cons *analyze.Constraints
}

// Unfold translates the UCQ into SQL over the mapping. The zero Opts
// applies no constraint-driven optimization.
func Unfold(ucq rewrite.UCQ, mp *r2rml.Mapping, filters []PushFilter, o Opts) (*Unfolded, error) {
	res := &Unfolded{}
	if len(ucq) == 0 {
		return nil, fmt.Errorf("unfold: empty UCQ")
	}
	res.Vars = append([]string{}, ucq[0].Answer...)
	res.FiltersPushed = allTrue(len(filters))
	var arms []*sqldb.SelectStmt
	for _, cq := range ucq {
		cqArms, st, pushed, err := unfoldCQ(cq, mp, filters, o.Cons)
		if err != nil {
			return nil, err
		}
		arms = append(arms, cqArms...)
		res.PrunedArms += st.pruned
		res.SelfJoinsEliminated += st.selfJoins
		res.StaticPrunedCands += st.staticCands
		for i := range res.FiltersPushed {
			res.FiltersPushed[i] = res.FiltersPushed[i] && pushed[i]
		}
	}
	// Drop syntactically identical arms (saturated mappings derive the
	// same assertion through several subsumption paths).
	seenArm := make(map[string]bool, len(arms))
	uniq := arms[:0]
	for _, a := range arms {
		k := a.String()
		if seenArm[k] {
			continue
		}
		seenArm[k] = true
		uniq = append(uniq, a)
	}
	arms = uniq
	if o.Cons != nil && len(arms) > 1 {
		arms = subsumeArms(arms, &res.SubsumedArms)
	}
	res.Arms = len(arms)
	if len(arms) == 0 {
		return res, nil // provably empty
	}
	for i := 0; i < len(arms)-1; i++ {
		arms[i].Union = arms[i+1]
	}
	arms[0].UnionAll = true
	res.Stmt = arms[0]
	return res, nil
}

// cqStats aggregates the per-CQ unfolding counters.
type cqStats struct {
	pruned      int // walk-time template-compatibility prunes
	selfJoins   int
	staticCands int // pre-walk statically deleted candidates
}

// unfoldCQ enumerates mapping-assertion combinations for the CQ's atoms and
// compiles each viable combination into one SPJ arm. Candidates that
// pruneCandidatesStatic proves cannot take part in any viable combination
// are deleted before the walk.
func unfoldCQ(cq *rewrite.CQ, mp *r2rml.Mapping, filters []PushFilter, cons *analyze.Constraints) (arms []*sqldb.SelectStmt, st cqStats, pushedAll []bool, err error) {
	cands := make([][]candidate, len(cq.Atoms))
	for i, atom := range cq.Atoms {
		cands[i] = candidatesFor(atom, mp)
		if len(cands[i]) == 0 {
			return nil, st, allTrue(len(filters)), nil // some atom has no mapping: CQ is empty
		}
	}
	dropped, empty := pruneCandidatesStatic(cq, cands, cons)
	if empty {
		return nil, cqStats{staticCands: dropped}, allTrue(len(filters)), nil // statically empty CQ
	}
	arms, st, pushedAll, err = walkCandidates(cq, cands, filters, cons)
	st.staticCands = dropped
	return arms, st, pushedAll, err
}

// allTrue returns n true flags.
func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// walkCandidates enumerates every combination that picks one candidate per
// atom from cands and compiles each viable one into an SPJ arm. pushedAll[i]
// reports whether filters[i] reached SQL in every emitted arm.
func walkCandidates(cq *rewrite.CQ, cands [][]candidate, filters []PushFilter, cons *analyze.Constraints) (arms []*sqldb.SelectStmt, st cqStats, pushedAll []bool, err error) {
	pushedAll = allTrue(len(filters))
	pick := make([]candidate, len(cq.Atoms))
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(cands) {
			arm, ok, merged, pushed, err := buildArm(cq, pick, filters, cons)
			if err != nil {
				return err
			}
			if !ok {
				st.pruned++
				return nil
			}
			st.selfJoins += merged
			arms = append(arms, arm)
			for fi := range pushedAll {
				pushedAll[fi] = pushedAll[fi] && pushed[fi]
			}
			return nil
		}
		for _, c := range cands[i] {
			// Incremental template-compatibility pruning: reject the
			// candidate as soon as a shared variable cannot unify with an
			// earlier pick (cuts the combinatorial walk exponentially).
			if !compatibleWithPicks(cq, pick[:i], c, i, cons) {
				st.pruned++
				continue
			}
			pick[i] = c
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, cqStats{}, pushedAll, err
	}
	return arms, st, pushedAll, nil
}

// termMapsOf lists the (term, map) pairs a candidate contributes for its atom.
func termMapsOf(a rewrite.Atom, c candidate) [][2]interface{} {
	out := [][2]interface{}{{a.S, c.subject}}
	if !c.isClass {
		out = append(out, [2]interface{}{a.O, c.object})
	}
	return out
}

// compatibleWithPicks performs the cheap half of unification between the
// new candidate and all previous picks: shared variables must have
// structurally compatible term maps, and constants must match templates.
func compatibleWithPicks(cq *rewrite.CQ, picked []candidate, c candidate, idx int, cons *analyze.Constraints) bool {
	newPairs := termMapsOf(cq.Atoms[idx], c)
	// constants against the new candidate's own maps
	for _, p := range newPairs {
		t := p[0].(rewrite.Term)
		tm := p[1].(r2rml.TermMap)
		if !t.IsVar() && !constantCompatible(tm, t.Const) {
			return false
		}
	}
	for j, pc := range picked {
		oldPairs := termMapsOf(cq.Atoms[j], pc)
		for _, np := range newPairs {
			nt := np[0].(rewrite.Term)
			if !nt.IsVar() {
				continue
			}
			ntm := np[1].(r2rml.TermMap)
			for _, op := range oldPairs {
				ot := op[0].(rewrite.Term)
				if !ot.IsVar() || ot.Var != nt.Var {
					continue
				}
				otm := op[1].(r2rml.TermMap)
				if !mapsCompatible(cons, c.m, ntm, pc.m, otm) {
					return false
				}
			}
		}
	}
	return true
}

func constantCompatible(tm r2rml.TermMap, c rdf.Term) bool {
	switch tm.Kind {
	case r2rml.ConstantTerm:
		return tm.Constant == c
	case r2rml.IRITemplate:
		if !c.IsIRI() {
			return false
		}
		_, ok := tm.Template.Match(c.Value)
		return ok
	case r2rml.LiteralTemplate:
		if !c.IsLiteral() {
			return false
		}
		_, ok := tm.Template.Match(c.Value)
		return ok
	default:
		return c.IsLiteral()
	}
}

// mapsCompatible is the conservative structural check used during the
// candidate walk; the full unification in buildArm remains authoritative.
// The implementation is shared with the static analyzer (r2rml). a comes
// from triples map am and b from bm; with constraints, their sources'
// column types narrow what template placeholders can expand to.
func mapsCompatible(cons *analyze.Constraints, am *r2rml.TriplesMap, a r2rml.TermMap, bm *r2rml.TriplesMap, b r2rml.TermMap) bool {
	return r2rml.TermMapsCompatible(a, cons.ValueClasses(am), b, cons.ValueClasses(bm))
}

func candidatesFor(atom rewrite.Atom, mp *r2rml.Mapping) []candidate {
	var out []candidate
	for _, m := range mp.Maps {
		if atom.Kind == rewrite.ClassAtom {
			for _, c := range m.Classes {
				if c == atom.Pred {
					out = append(out, candidate{m: m, subject: m.Subject, isClass: true})
				}
			}
			continue
		}
		for _, po := range m.POs {
			if po.Predicate == atom.Pred {
				out = append(out, candidate{m: m, subject: m.Subject, object: po.Object})
			}
		}
	}
	return out
}

// occurrence locates a term map instance within an arm; cls holds the
// value classes of its source's columns (nil without constraints).
type occurrence struct {
	alias string
	tm    r2rml.TermMap
	cls   r2rml.ColumnClasses
}

// buildArm compiles one combination of mapping assertions into an SPJ
// SELECT. ok=false means the combination is pruned (template mismatch).
func buildArm(cq *rewrite.CQ, pick []candidate, filters []PushFilter, cons *analyze.Constraints) (stmt *sqldb.SelectStmt, ok bool, selfJoins int, pushed []bool, err error) {
	pushed = make([]bool, len(filters))
	// Self-join elimination: group atoms by (source, subject var, subject
	// template); each group shares one alias. With constraints, candidates
	// whose sources reduce to the same base table additionally merge
	// across *different* mapping assertions whenever the shared subject
	// template covers a PK/UNIQUE key of that table — equal key values
	// denote the same row (a virtual functional dependency), so one table
	// instance suffices and the sources' WHERE clauses hoist into the arm.
	type groupKey struct {
		source  string
		subject string // subject term rendering (var name or constant)
		tmpl    string
	}
	aliasOf := make([]string, len(pick))
	groups := make(map[groupKey]string)
	aliasSeq := 0
	var fromItems []sqldb.TableRef
	var conds []sqldb.Expr
	aliasTable := make(map[string]string) // alias -> base table (guard elision)
	seenHoist := make(map[string]bool)    // dedup hoisted source conditions
	newAlias := func(c candidate) (string, error) {
		aliasSeq++
		alias := fmt.Sprintf("t%d", aliasSeq)
		if c.m.SQL != "" {
			sub, err := c.m.LogicalSQL()
			if err != nil {
				return "", err
			}
			fromItems = append(fromItems, &sqldb.SubqueryTable{Query: cloneStmt(sub), Alias: alias})
		} else {
			fromItems = append(fromItems, &sqldb.BaseTable{Name: c.m.Table, Alias: alias})
		}
		return alias, nil
	}
	for i, c := range pick {
		// A source that reduces to a plain projection of one base table is
		// the precondition for key-based self-join elimination and
		// catalog-driven NOT NULL guard elision.
		var (
			table string
			where sqldb.Expr
			plain bool
		)
		if cons != nil {
			table, where, plain = c.m.BaseTable()
		}
		keyMerge := plain && len(c.subject.Columns()) > 0 &&
			cons.KeyCoveredBy(table, c.subject.Columns())
		key := groupKey{
			source:  c.m.SourceDescription(),
			subject: cq.Atoms[i].S.String(),
			tmpl:    c.subject.String(),
		}
		if keyMerge {
			key.source = "\x00table:" + strings.ToLower(table)
		}
		alias, found := groups[key]
		if found && (keyMerge || cq.Atoms[i].S.IsVar()) {
			aliasOf[i] = alias
			selfJoins++
		} else {
			if keyMerge {
				// Flatten to a plain base table; source filters hoist below.
				aliasSeq++
				alias = fmt.Sprintf("t%d", aliasSeq)
				fromItems = append(fromItems, &sqldb.BaseTable{Name: table, Alias: alias})
			} else if alias, err = newAlias(c); err != nil {
				return nil, false, 0, pushed, err
			}
			groups[key] = alias
			aliasOf[i] = alias
		}
		if plain {
			aliasTable[alias] = table
		}
		if keyMerge && where != nil {
			for _, cj := range sqldb.Conjuncts(where) {
				q := sqldb.QualifyColumns(cj, alias)
				k := alias + "\x00" + q.String()
				if !seenHoist[k] {
					seenHoist[k] = true
					conds = append(conds, q)
				}
			}
		}
	}

	// Collect per-variable occurrences and constant conditions.
	varOccs := make(map[string][]occurrence)
	addOcc := func(t rewrite.Term, alias string, tm r2rml.TermMap, cls r2rml.ColumnClasses) bool {
		if t.IsVar() {
			varOccs[t.Var] = append(varOccs[t.Var], occurrence{alias, tm, cls})
			return true
		}
		cs, okc := constantConditions(alias, tm, t.Const)
		if !okc {
			return false
		}
		conds = append(conds, cs...)
		return true
	}
	for i, c := range pick {
		cls := cons.ValueClasses(c.m)
		if !addOcc(cq.Atoms[i].S, aliasOf[i], c.subject, cls) {
			return nil, false, 0, pushed, nil
		}
		if !c.isClass {
			if !addOcc(cq.Atoms[i].O, aliasOf[i], c.object, cls) {
				return nil, false, 0, pushed, nil
			}
		}
	}
	// Join conditions between occurrences of the same variable
	// (deterministic variable order keeps emitted SQL stable).
	varNames := make([]string, 0, len(varOccs))
	for v := range varOccs {
		varNames = append(varNames, v)
	}
	sort.Strings(varNames)
	for _, v := range varNames {
		occs := varOccs[v]
		rep := occs[0]
		for _, o := range occs[1:] {
			cs, okj := unifyOccurrences(rep, o)
			if !okj {
				return nil, false, 0, pushed, nil
			}
			conds = append(conds, cs...)
		}
	}
	// NOT NULL guards for every column feeding an answer variable or a
	// join/constant condition (R2RML: NULL generates no term).
	seenNN := map[string]bool{}
	addNotNull := func(alias string, tm r2rml.TermMap) {
		for _, col := range tm.Columns() {
			if t, known := aliasTable[alias]; known && cons.IsNotNull(t, col) {
				continue // catalog says NOT NULL: guard is redundant
			}
			k := alias + "." + col
			if seenNN[k] {
				continue
			}
			seenNN[k] = true
			conds = append(conds, &sqldb.IsNullExpr{
				E:      &sqldb.ColRef{Table: alias, Name: col},
				Negate: true,
			})
		}
	}
	for i, c := range pick {
		addNotNull(aliasOf[i], c.subject)
		if !c.isClass {
			addNotNull(aliasOf[i], c.object)
		}
	}

	// Pushed filters: translate against the variable's representative
	// occurrence when it is a literal column; skip otherwise (the engine
	// re-checks filters on the translated results anyway).
	for fi, f := range filters {
		occs := varOccs[f.Var]
		if len(occs) == 0 {
			continue
		}
		if cond, okf := filterCondition(occs[0], f); okf {
			conds = append(conds, cond)
			pushed[fi] = true
		}
	}

	// Projection: three columns per answer variable.
	stmt = sqldb.NewSelect()
	for _, v := range cq.Answer {
		occs := varOccs[v]
		if len(occs) == 0 {
			// variable not bound by this arm: output NULLs
			stmt.Items = append(stmt.Items,
				sqldb.SelectItem{Expr: &sqldb.Lit{Val: sqldb.Null}, Alias: "v_" + v},
				sqldb.SelectItem{Expr: &sqldb.Lit{Val: sqldb.NewInt(TagLiteral)}, Alias: "v_" + v + "_t"},
				sqldb.SelectItem{Expr: &sqldb.Lit{Val: sqldb.NewString("")}, Alias: "v_" + v + "_dt"})
			continue
		}
		lex, tag, dt := projectTermMap(occs[0])
		stmt.Items = append(stmt.Items,
			sqldb.SelectItem{Expr: lex, Alias: "v_" + v},
			sqldb.SelectItem{Expr: &sqldb.Lit{Val: sqldb.NewInt(int64(tag))}, Alias: "v_" + v + "_t"},
			sqldb.SelectItem{Expr: &sqldb.Lit{Val: sqldb.NewString(dt)}, Alias: "v_" + v + "_dt"})
	}
	stmt.From = fromItems
	var where sqldb.Expr
	for _, c := range conds {
		if where == nil {
			where = c
		} else {
			where = &sqldb.BinOp{Op: sqldb.OpAnd, L: where, R: c}
		}
	}
	stmt.Where = where
	return stmt, true, selfJoins, pushed, nil
}

// projectTermMap builds the lexical-form SQL expression plus tag/datatype
// for a term map occurrence.
func projectTermMap(o occurrence) (lex sqldb.Expr, tag int, datatype string) {
	switch o.tm.Kind {
	case r2rml.ConstantTerm:
		t := o.tm.Constant
		switch {
		case t.IsIRI():
			return &sqldb.Lit{Val: sqldb.NewString(t.Value)}, TagIRI, ""
		case t.Datatype != "":
			return &sqldb.Lit{Val: sqldb.NewString(t.Value)}, TagTyped, t.Datatype
		default:
			return &sqldb.Lit{Val: sqldb.NewString(t.Value)}, TagLiteral, ""
		}
	case r2rml.IRITemplate:
		return concatTemplate(o.alias, o.tm.Template), TagIRI, ""
	case r2rml.LiteralTemplate:
		return concatTemplate(o.alias, o.tm.Template), TagTyped, o.tm.Datatype
	default: // LiteralColumn
		return &sqldb.ColRef{Table: o.alias, Name: o.tm.Column}, TagTyped, o.tm.Datatype
	}
}

// concatTemplate renders template expansion as SQL string concatenation.
func concatTemplate(alias string, t *r2rml.Template) sqldb.Expr {
	var out sqldb.Expr
	add := func(e sqldb.Expr) {
		if out == nil {
			out = e
			return
		}
		out = &sqldb.BinOp{Op: sqldb.OpConcat, L: out, R: e}
	}
	parts, cols := t.Skeleton()
	for i, p := range parts {
		if p != "" {
			add(&sqldb.Lit{Val: sqldb.NewString(p)})
		}
		if i < len(cols) {
			add(&sqldb.ColRef{Table: alias, Name: cols[i]})
		}
	}
	if out == nil {
		out = &sqldb.Lit{Val: sqldb.NewString("")}
	}
	return out
}

// constantConditions unifies a term map with a constant query term,
// producing column equality conditions; ok=false prunes the arm.
func constantConditions(alias string, tm r2rml.TermMap, c rdf.Term) ([]sqldb.Expr, bool) {
	switch tm.Kind {
	case r2rml.ConstantTerm:
		return nil, tm.Constant == c
	case r2rml.IRITemplate:
		if !c.IsIRI() {
			return nil, false
		}
		return templateConditions(alias, tm.Template, c.Value)
	case r2rml.LiteralTemplate:
		if !c.IsLiteral() {
			return nil, false
		}
		return templateConditions(alias, tm.Template, c.Value)
	default: // LiteralColumn
		if !c.IsLiteral() {
			return nil, false
		}
		return []sqldb.Expr{&sqldb.BinOp{
			Op: sqldb.OpEq,
			L:  &sqldb.ColRef{Table: alias, Name: tm.Column},
			R:  &sqldb.Lit{Val: literalValue(c)},
		}}, true
	}
}

// templateConditions unifies a template with a concrete string, producing
// deterministic per-column equality conditions (placeholder order).
func templateConditions(alias string, tmpl *r2rml.Template, s string) ([]sqldb.Expr, bool) {
	vals, ok := tmpl.Match(s)
	if !ok {
		return nil, false
	}
	var conds []sqldb.Expr
	for _, col := range tmpl.Columns {
		v, present := vals[col]
		if !present {
			return nil, false
		}
		conds = append(conds, &sqldb.BinOp{
			Op: sqldb.OpEq,
			L:  &sqldb.ColRef{Table: alias, Name: col},
			R:  &sqldb.Lit{Val: guessValue(v)},
		})
	}
	return conds, true
}

// unifyOccurrences emits join conditions equating two term-map occurrences
// of the same variable; ok=false prunes the arm (template mismatch — the
// headline SQO of the paper's mapping design).
func unifyOccurrences(a, b occurrence) ([]sqldb.Expr, bool) {
	if a.alias == b.alias && a.tm.String() == b.tm.String() {
		return nil, true // same instance: trivially equal
	}
	ak, bk := a.tm.Kind, b.tm.Kind
	// IRI cannot equal literal.
	aIRI := ak == r2rml.IRITemplate || (ak == r2rml.ConstantTerm && a.tm.Constant.IsIRI())
	bIRI := bk == r2rml.IRITemplate || (bk == r2rml.ConstantTerm && b.tm.Constant.IsIRI())
	if aIRI != bIRI {
		return nil, false
	}
	// Constants resolve to constant conditions on the other side.
	if ak == r2rml.ConstantTerm {
		return constantConditions(b.alias, b.tm, a.tm.Constant)
	}
	if bk == r2rml.ConstantTerm {
		return constantConditions(a.alias, a.tm, b.tm.Constant)
	}
	if ak == r2rml.LiteralColumn && bk == r2rml.LiteralColumn {
		return []sqldb.Expr{&sqldb.BinOp{
			Op: sqldb.OpEq,
			L:  &sqldb.ColRef{Table: a.alias, Name: a.tm.Column},
			R:  &sqldb.ColRef{Table: b.alias, Name: b.tm.Column},
		}}, true
	}
	if (ak == r2rml.IRITemplate || ak == r2rml.LiteralTemplate) &&
		(bk == r2rml.IRITemplate || bk == r2rml.LiteralTemplate) {
		ta, tb := a.tm.Template, b.tm.Template
		if ta.DisjointUnder(a.cls, tb, b.cls) {
			return nil, false
		}
		pa, ca := ta.Skeleton()
		pb, cb := tb.Skeleton()
		if len(ca) == len(cb) && slices.Equal(pa, pb) {
			// identical skeletons: equate columns pairwise
			var conds []sqldb.Expr
			for i := range ca {
				conds = append(conds, &sqldb.BinOp{
					Op: sqldb.OpEq,
					L:  &sqldb.ColRef{Table: a.alias, Name: ca[i]},
					R:  &sqldb.ColRef{Table: b.alias, Name: cb[i]},
				})
			}
			return conds, true
		}
		// fall back to comparing the generated strings (reached only
		// when the value classes admit a collision)
		return []sqldb.Expr{&sqldb.BinOp{
			Op: sqldb.OpEq,
			L:  concatTemplate(a.alias, ta),
			R:  concatTemplate(b.alias, tb),
		}}, true
	}
	// literal column vs literal template: compare strings
	return []sqldb.Expr{&sqldb.BinOp{
		Op: sqldb.OpEq,
		L:  projectLex(a),
		R:  projectLex(b),
	}}, true
}

func projectLex(o occurrence) sqldb.Expr {
	lex, _, _ := projectTermMap(o)
	return lex
}

// filterCondition translates a pushed filter over a literal-column variable
// occurrence into SQL; ok=false when not translatable.
func filterCondition(o occurrence, f PushFilter) (sqldb.Expr, bool) {
	if o.tm.Kind != r2rml.LiteralColumn {
		return nil, false
	}
	var op sqldb.BinOpKind
	switch f.Op {
	case "=":
		op = sqldb.OpEq
	case "!=":
		op = sqldb.OpNe
	case "<":
		op = sqldb.OpLt
	case "<=":
		op = sqldb.OpLe
	case ">":
		op = sqldb.OpGt
	case ">=":
		op = sqldb.OpGe
	default:
		return nil, false
	}
	return &sqldb.BinOp{
		Op: op,
		L:  &sqldb.ColRef{Table: o.alias, Name: o.tm.Column},
		R:  &sqldb.Lit{Val: literalValue(f.Val)},
	}, true
}

// literalValue converts an RDF literal to the SQL value used in pushed
// comparisons.
func literalValue(t rdf.Term) sqldb.Value {
	switch t.Datatype {
	case rdf.XSDInteger:
		if n, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
			return sqldb.NewInt(n)
		}
	case rdf.XSDDecimal, rdf.XSDDouble:
		if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
			return sqldb.NewFloat(f)
		}
	case rdf.XSDDate:
		if v, err := sqldb.ParseDate(t.Value); err == nil {
			return v
		}
	case rdf.XSDBoolean:
		return sqldb.NewBool(t.Value == "true" || t.Value == "1")
	}
	return sqldb.NewString(t.Value)
}

// guessValue types a template-matched string fragment: integers and floats
// are recognized, everything else stays a string.
func guessValue(s string) sqldb.Value {
	if s == "" {
		return sqldb.NewString("")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sqldb.NewInt(n)
	}
	if strings.ContainsAny(s, ".eE") {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return sqldb.NewFloat(f)
		}
	}
	return sqldb.NewString(s)
}

// cloneStmt shallow-copies a parsed SELECT so union arms do not share
// mutable Union links.
func cloneStmt(s *sqldb.SelectStmt) *sqldb.SelectStmt {
	c := *s
	return &c
}

// subsumeArms drops arms provably contained in a surviving arm: identical
// projection and FROM rendering, with WHERE conjuncts a superset of the
// other's (the other arm already returns every row this arm can). Sound
// because every consumer enforces set semantics on the translated
// bindings (dedup at the BGP level, inner DISTINCT for aggregates).
func subsumeArms(arms []*sqldb.SelectStmt, counter *int) []*sqldb.SelectStmt {
	sets := make([]sqldb.ConjunctSet, len(arms))
	for i, a := range arms {
		c := *a
		c.Where = nil
		c.Union, c.UnionAll = nil, false
		conjs := make(map[string]bool)
		for _, cj := range sqldb.Conjuncts(a.Where) {
			conjs[cj.String()] = true
		}
		sets[i] = sqldb.ConjunctSet{Group: c.String(), Conjs: conjs}
	}
	out := arms[:0]
	for i, keep := range sqldb.Subsume(sets) {
		if keep {
			out = append(out, arms[i])
		} else {
			*counter++
		}
	}
	return out
}
