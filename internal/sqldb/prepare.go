package sqldb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Prepared is a SELECT statement (union chains and derived tables
// included) bound once against a database's schema, to be executed many
// times: the split a real server makes between preparing a statement and
// executing it. Prepare resolves every column reference to a slot, lays
// out every FROM item's columns, places each WHERE conjunct (on one FROM
// item, or on the join step that first sees all its columns), records
// each join's equi-key slot pairs, residual and the pick of the columns
// it emits (those read above it), builds the evalFns of filters,
// residuals, SELECT items, ORDER BY keys and aggregates, and numbers the
// distinct derived tables. Execute reads table rows, runs the
// operators and fills the statement cache; it resolves no name.
//
// A Prepared is planned for the database's profile at Prepare time. It is
// immutable once Prepare returns and safe for concurrent executions; the
// one exception is the sort-merge profile's memo of join orders, guarded
// by a lock. It holds *Table references and reads their Rows only at
// execute time, so rows inserted after Prepare are seen. What depends on
// data stays an execute-time decision: sort-merge's greedy join order and
// every operator's fan-out. Under the hash-join profile it keeps nothing
// of the statement's AST but the predicates EXPLAIN prints and the
// literal and function nodes its evaluators read.
type Prepared struct {
	profile Profile
	chain   *prepChain
	// nsubs counts the distinct derived tables: the slots of the statement
	// cache each execution allocates.
	nsubs int
}

// prepChain is a bound SELECT block or UNION chain.
type prepChain struct {
	arms []*prepSelect
	// op is the profile name of a union ("union all" or "union");
	// distinct is set for UNION. Both are unused for a single block.
	op       string
	distinct bool
	// cols is the output layout, the first arm's.
	cols []colMeta
}

// prepSelect is one bound SELECT block.
type prepSelect struct {
	from []*prepRef
	// pushed are the WHERE conjuncts that bind on one FROM item, in
	// conjunct order.
	pushed []pushedPred
	// written is the plan for the FROM items in written order, the one
	// the hash-join profile always runs.
	written *selectPlan

	distinct      bool
	limit, offset int

	// sm is the sort-merge profile's state; nil under hash join.
	sm *sortMerge
}

// sortMerge is what a SELECT block needs to plan the join orders the
// sort-merge profile picks from the data.
type sortMerge struct {
	stmt    *SelectStmt
	layouts [][]colMeta // per FROM item
	// pending are the conjuncts left to join planning; links describes
	// their column-equality edges.
	pending []conjunct
	links   []equiLink

	mu     sync.Mutex
	orders map[string]*selectPlan // guarded by mu
}

// pushedPred is a WHERE conjunct filtering one FROM item before any join.
type pushedPred struct {
	item int
	fn   evalFn
	expr Expr // profile detail
}

// conjunct is a WHERE conjunct with the column references it reads.
type conjunct struct {
	expr Expr
	refs []*ColRef
}

// equiLink is one column-equality conjunct for the greedy join order: the
// FROM items each of its two columns resolves in.
type equiLink struct {
	l, r []bool
}

// selectPlan is a SELECT block bound for one join order: the join steps,
// then everything bound against the joined layout. Each step emits only
// the columns a later step or the block's tail reads, so the joined
// layout holds those alone.
type selectPlan struct {
	// order lists the FROM items in join order; nil is the written order.
	order []int
	steps []joinOn
	// rest is the conjunction no join step consumed (only possible without
	// FROM or with a single FROM item), restExpr its profile detail.
	rest     evalFn
	restExpr Expr
	// Exactly one of proj and agg is set; out is the output layout.
	proj *projection
	agg  *aggPlan
	out  []colMeta
	sort *sortPlan
}

// item returns the FROM item joined at position k of the plan's order.
func (p *selectPlan) item(k int) int {
	if p.order == nil {
		return k
	}
	return p.order[k]
}

// joinOn is how a join step of the FROM list, or an explicit JOIN, matches
// and emits row pairs of its left and right inputs.
type joinOn struct {
	keys []equiKey
	// pred is the residual predicate (all usable conjuncts when keys is
	// empty), evaluated on the row check picks; nil when there is none.
	pred  evalFn
	check pick
	// emit picks each output row: the input slots something above the
	// join reads.
	emit pick
}

// projection is a bound SELECT list: one evalFn per computed item, and a
// nil entry for each star item, whose slots are the next entry of stars.
type projection struct {
	// passThrough returns the input relation itself (SELECT * in FROM
	// order).
	passThrough bool
	fns         []evalFn
	stars       [][]int
}

// sortPlan is a bound ORDER BY: key j reads the aligned input row instead
// of the output row when fromInput[j] is set.
type sortPlan struct {
	keys      []evalFn
	desc      []bool
	fromInput []bool
}

// prepRef is a bound FROM item: exactly one of table, sub and join is set.
type prepRef struct {
	// name is the profile detail: the table name as written, or the
	// derived table's alias.
	name string

	table *Table

	sub *prepChain
	id  int // statement-cache slot of sub

	join *prepJoin
}

// prepJoin is a bound explicit JOIN. Its pred is the residual when keys is
// non-empty, the whole ON predicate otherwise; a LEFT join pads the right
// slots of emit with NULLs for an unmatched row.
type prepJoin struct {
	kind JoinKind
	l, r *prepRef
	joinOn
	detail string
}

// binder carries the state of one Prepare call.
type binder struct {
	db      *Database
	profile Profile
	// subs deduplicates derived tables by their SQL text: OBDA unfoldings
	// repeat the same mapping view across many union arms, and each is
	// materialized once per execution. seen maps each derived statement
	// already bound to its entry, so a statement shared by many arms is
	// rendered once.
	subs map[string]derived
	seen map[*SelectStmt]derived
	// nsubs numbers the derived tables.
	nsubs int
	// scans shares the column layout of each (table, alias) scan, and lits
	// the evalFn of each literal SELECT item value.
	scans map[scanKey][]colMeta
	lits  map[Value]evalFn
}

type derived struct {
	chain *prepChain
	id    int
}

type scanKey struct {
	t     *Table
	alias string
}

// Prepare binds a parsed SELECT statement against db. It fails with the
// error an execution of the statement would have raised for an unknown
// table or column, a UNION arity mismatch or an unbindable expression.
func Prepare(db *Database, s *SelectStmt) (*Prepared, error) {
	return newBinder(db).prepare(s)
}

// PrepareWith is Prepare for a statement built around an already prepared
// one: every derived table whose statement is sub (by identity) stands for
// inner and reuses its binding, so the wrapper costs only its own binding
// and shares inner's memory. sub itself is never bound, and inner must
// have been prepared against db.
func PrepareWith(db *Database, s, sub *SelectStmt, inner *Prepared) (*Prepared, error) {
	b := newBinder(db)
	// inner's derived tables keep their slots; sub takes the next one.
	b.nsubs = inner.nsubs + 1
	b.seen[sub] = derived{chain: inner.chain, id: inner.nsubs}
	return b.prepare(s)
}

func newBinder(db *Database) *binder {
	return &binder{db: db, profile: db.Profile, subs: make(map[string]derived), seen: make(map[*SelectStmt]derived),
		scans: make(map[scanKey][]colMeta), lits: make(map[Value]evalFn)}
}

func (b *binder) prepare(s *SelectStmt) (*Prepared, error) {
	chain, err := b.chain(s)
	if err != nil {
		return nil, err
	}
	return &Prepared{profile: b.profile, chain: chain, nsubs: b.nsubs}, nil
}

// derived binds a derived table's statement once per Prepare.
func (b *binder) derived(q *SelectStmt) (derived, error) {
	if d, ok := b.seen[q]; ok {
		return d, nil
	}
	key := q.String()
	d, ok := b.subs[key]
	if !ok {
		chain, err := b.chain(q)
		if err != nil {
			return derived{}, err
		}
		d = derived{chain: chain, id: b.nsubs}
		b.nsubs++
		b.subs[key] = d
	}
	b.seen[q] = d
	return d, nil
}

func (b *binder) chain(s *SelectStmt) (*prepChain, error) {
	c := &prepChain{op: "union all", distinct: !s.UnionAll}
	if !s.UnionAll {
		c.op = "union"
	}
	for arm := s; arm != nil; arm = arm.Union {
		ps, err := b.selectBlock(arm)
		if err != nil {
			return nil, err
		}
		c.arms = append(c.arms, ps)
	}
	c.cols = c.arms[0].written.out
	for _, arm := range c.arms[1:] {
		if len(arm.written.out) != len(c.cols) {
			return nil, fmt.Errorf("sqldb: UNION arms have %d vs %d columns", len(c.cols), len(arm.written.out))
		}
		// Unfolded arms name their columns alike: keep one layout.
		if slices.Equal(arm.written.out, c.cols) {
			arm.written.out = c.cols
		}
	}
	return c, nil
}

func (b *binder) selectBlock(s *SelectStmt) (*prepSelect, error) {
	ps := &prepSelect{from: make([]*prepRef, len(s.From)), distinct: s.Distinct, limit: s.Limit, offset: s.Offset}
	layouts := make([][]colMeta, len(s.From))
	for i, tr := range s.From {
		// An explicit JOIN emits only the columns the block can read of it.
		var need []bool
		if _, ok := tr.(*JoinRef); ok {
			full, err := b.layout(tr)
			if err != nil {
				return nil, err
			}
			need = blockReads(s, full)
		}
		r, cols, err := b.ref(tr, need)
		if err != nil {
			return nil, err
		}
		ps.from[i], layouts[i] = r, cols
	}
	// A conjunct whose columns all resolve on one FROM item filters the
	// first such item before any join.
	var pending []conjunct
	for _, c := range Conjuncts(s.Where) {
		refs := ColumnRefs(c)
		item := slices.IndexFunc(layouts, func(cols []colMeta) bool { return resolves(refs, cols) })
		if item < 0 {
			pending = append(pending, conjunct{c, refs})
			continue
		}
		fn, err := bindExpr(c, layouts[item])
		if err != nil {
			return nil, err
		}
		ps.pushed = append(ps.pushed, pushedPred{item: item, fn: fn, expr: c})
	}
	if b.profile == ProfileSortMerge {
		ps.sm = &sortMerge{stmt: s, layouts: layouts, pending: pending, links: equiLinks(pending, layouts)}
	}
	var err error
	ps.written, err = bindPlan(b, s, layouts, pending, nil)
	return ps, err
}

// blockReads marks the columns of one FROM item's layout that block s can
// read: the first match of each column reference, and every column a star
// expands to. Keeping the first match of every name keeps it resolving to
// the same column whatever else is dropped or joined before it.
func blockReads(s *SelectStmt, cols []colMeta) []bool {
	need := make([]bool, len(cols))
	mark := func(e Expr) {
		for _, r := range ColumnRefs(e) {
			if q := findCol(cols, r.Table, r.Name); q >= 0 {
				need[q] = true
			}
		}
	}
	mark(s.Where)
	for _, it := range s.Items {
		if !it.Star {
			mark(it.Expr)
			continue
		}
		t := strings.ToLower(it.Table)
		for q, c := range cols {
			if t == "" || c.table == t {
				need[q] = true
			}
		}
	}
	for _, g := range s.GroupBy {
		mark(g)
	}
	mark(s.Having)
	for _, o := range s.OrderBy {
		mark(o.Expr)
	}
	return need
}

// resolves reports whether every column reference resolves in cols.
func resolves(refs []*ColRef, cols []colMeta) bool {
	for _, r := range refs {
		if findCol(cols, r.Table, r.Name) < 0 {
			return false
		}
	}
	return true
}

// equiLinks records, for every column-equality conjunct, where its two
// columns resolve.
func equiLinks(conjuncts []conjunct, layouts [][]colMeta) []equiLink {
	var links []equiLink
	for _, c := range conjuncts {
		e, ok := c.expr.(*BinOp)
		if !ok || e.Op != OpEq {
			continue
		}
		lc, lok := e.L.(*ColRef)
		rc, rok := e.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		k := equiLink{l: make([]bool, len(layouts)), r: make([]bool, len(layouts))}
		for i, cols := range layouts {
			k.l[i] = findCol(cols, lc.Table, lc.Name) >= 0
			k.r[i] = findCol(cols, rc.Table, rc.Name) >= 0
		}
		links = append(links, k)
	}
	return links
}

// planFor returns the sort-merge plan of a join order, binding it on first
// use: the greedy order depends on the data, so orders other than the
// written one are memoised here.
func (ps *prepSelect) planFor(order []int) (*selectPlan, error) {
	identity := true
	for i, o := range order {
		identity = identity && i == o
	}
	if identity {
		return ps.written, nil
	}
	var kb []byte
	for _, o := range order {
		kb = binary.AppendUvarint(kb, uint64(o))
	}
	sm := ps.sm
	sm.mu.Lock()
	p := sm.orders[string(kb)]
	sm.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := bindPlan(nil, sm.stmt, sm.layouts, sm.pending, order)
	if err != nil {
		return nil, err
	}
	sm.mu.Lock()
	if sm.orders == nil {
		sm.orders = make(map[string]*selectPlan)
	}
	sm.orders[string(kb)] = p
	sm.mu.Unlock()
	return p, nil
}

// bindPlan plans block s, whose FROM items have the given layouts, for
// one join order (nil: the written order). Every column reference
// resolves once against the order's full layout, the concatenation of its
// FROM items. A pending conjunct runs at the first step that has joined
// every column it reads, as an equi key or in the step's residual, and
// each step emits only the columns a later step or the block's tail reads.
// The tail (the conjunction no step consumed, the SELECT list, grouping
// and ORDER BY) binds against the last step's layout. A narrowed layout
// keeps its columns in full order, and the column each name read through
// it resolves to, so names resolve there as in the full layout. b, when
// set, shares literal evalFns across the statement.
func bindPlan(b *binder, s *SelectStmt, layouts [][]colMeta, pending []conjunct, order []int) (*selectPlan, error) {
	p := &selectPlan{order: order}
	n := len(layouts)
	// all is the order's full layout; ends[k] is where the k-th item of
	// the order ends in it, start[i] where FROM item i begins. One FROM
	// item alone shares its scan's layout.
	var all []colMeta
	ends, start := make([]int, n), make([]int, n)
	if n == 1 {
		all = layouts[0]
		ends[0] = len(all)
	} else if n > 1 {
		width := 0
		for _, cols := range layouts {
			width += len(cols)
		}
		all = make([]colMeta, 0, width)
		for k := range n {
			i := p.item(k)
			start[i] = len(all)
			all = append(all, layouts[i]...)
			ends[k] = len(all)
		}
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range s.Items {
		if !it.Star && exprHasAggregate(it.Expr) {
			hasAgg = true
		}
	}
	// Without aggregation, out is the output layout and stars lists the
	// positions in all of each star item's columns. Stars expand in written
	// FROM order whatever the join order, so a block's output layout never
	// depends on the data.
	var out []colMeta
	var stars [][]int
	if !hasAgg {
		out = make([]colMeta, 0, len(s.Items))
		for _, it := range s.Items {
			if !it.Star {
				out = append(out, itemCol(it))
				continue
			}
			var pos []int
			t := strings.ToLower(it.Table)
			for i, f := range layouts {
				for j, c := range f {
					if t == "" || c.table == t {
						out = append(out, c)
						pos = append(pos, start[i]+j)
					}
				}
			}
			if len(pos) == 0 {
				return nil, fmt.Errorf("sqldb: %s.* matches no columns", it.Table)
			}
			stars = append(stars, pos)
		}
	}

	// at[c] is the join step pending conjunct c runs at, 0 for the tail;
	// refPos[c] the positions in all its columns resolve to. last[q] is the
	// last reader of position q: a step in 1..n-1, or n for the tail.
	at := make([]int, len(pending))
	refPos := make([][]int, len(pending))
	var last []int
	if n > 1 {
		last = make([]int, len(all))
		read := func(refs []*ColRef) {
			for _, r := range refs {
				if q := findCol(all, r.Table, r.Name); q >= 0 {
					last[q] = n
				}
			}
		}
		for c, pc := range pending {
			k := 1
			for _, r := range pc.refs {
				q := findCol(all, r.Table, r.Name)
				if q < 0 {
					k = 0
					break
				}
				refPos[c] = append(refPos[c], q)
				k = max(k, slices.IndexFunc(ends, func(end int) bool { return q < end }))
			}
			at[c] = k
			if k == 0 {
				read(pc.refs)
				continue
			}
			for _, q := range refPos[c] {
				last[q] = max(last[q], k)
			}
		}
		if hasAgg {
			for _, g := range s.GroupBy {
				read(ColumnRefs(g))
			}
			read(ColumnRefs(s.Having))
		}
		for _, it := range s.Items {
			read(ColumnRefs(it.Expr))
		}
		for _, pos := range stars {
			for _, q := range pos {
				last[q] = n
			}
		}
		if !hasAgg && !s.Distinct {
			for _, o := range s.OrderBy {
				if refs := ColumnRefs(o.Expr); !resolves(refs, out) {
					read(refs)
				}
			}
		}
	}

	// cur is the joined layout, pos its positions in all (nil: all of
	// them, while nothing is joined).
	var cur []colMeta
	var pos []int
	if n > 0 {
		cur = layouts[p.item(0)]
	}
	if n > 1 {
		pos = make([]int, ends[0])
		for i := range pos {
			pos[i] = i
		}
		p.steps = make([]joinOn, 0, n-1)
	}
	for k := 1; k < n; k++ {
		next := layouts[p.item(k)]
		base := ends[k-1]
		var st joinOn
		var residual []Expr
		var check []int
		for c, pc := range pending {
			if at[c] != k {
				continue
			}
			if key, ok := equiKeyOf(pc.expr, cur, next); ok {
				st.keys = append(st.keys, key)
				continue
			}
			residual = append(residual, pc.expr)
			check = append(check, refPos[c]...)
		}
		if res := AndAll(residual); res != nil {
			slices.Sort(check)
			check = slices.Compact(check)
			st.check = pickOf(check, base, pos, nil)
			var err error
			if st.pred, err = bindExpr(res, colsAt(all, check)); err != nil {
				return nil, err
			}
		}
		keep := make([]int, 0, len(pos)+len(next))
		for _, q := range pos {
			if last[q] > k {
				keep = append(keep, q)
			}
		}
		for q := base; q < ends[k]; q++ {
			if last[q] > k {
				keep = append(keep, q)
			}
		}
		st.emit = pickOf(keep, base, pos, nil)
		p.steps = append(p.steps, st)
		pos, cur = keep, colsAt(all, keep)
	}
	var rest []Expr
	for c, pc := range pending {
		if at[c] == 0 {
			rest = append(rest, pc.expr)
		}
	}
	if r := AndAll(rest); r != nil {
		var err error
		if p.rest, err = bindExpr(r, cur); err != nil {
			return nil, err
		}
		p.restExpr = r
	}

	var err error
	if hasAgg {
		p.agg, p.out, err = bindAggregate(s, cur)
		if err != nil {
			return nil, err
		}
	} else {
		for _, sp := range stars {
			for i, q := range sp {
				sp[i] = slotIn(pos, q)
			}
		}
		p.out = out
		if p.proj, err = bindProjection(b, s.Items, stars, cur, order == nil); err != nil {
			return nil, err
		}
	}
	if len(s.OrderBy) > 0 {
		// ORDER BY reads the input rows aligned with the output only
		// without aggregation or DISTINCT.
		var inCols []colMeta
		if p.proj != nil && !s.Distinct {
			inCols = cur
		}
		if p.sort, err = bindOrderBy(s.OrderBy, p.out, inCols); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// colsAt returns the columns of cols at positions pos.
func colsAt(cols []colMeta, pos []int) []colMeta {
	out := make([]colMeta, len(pos))
	for i, q := range pos {
		out[i] = cols[q]
	}
	return out
}

// pickOf builds the pick of positions pos of a join's full left++right
// layout, whose left side has lw columns. A narrowed input holds the full
// slots listed in lkeep or rkeep (ascending); nil lists all of them.
func pickOf(pos []int, lw int, lkeep, rkeep []int) pick {
	nl, _ := slices.BinarySearch(pos, lw)
	pk := pick{l: make([]int, nl), r: make([]int, len(pos)-nl)}
	for i, q := range pos[:nl] {
		pk.l[i] = slotIn(lkeep, q)
	}
	for i, q := range pos[nl:] {
		pk.r[i] = slotIn(rkeep, q-lw)
	}
	return pk
}

// slotIn returns the slot of full slot q in an input that holds the full
// slots keep (nil: all of them).
func slotIn(keep []int, q int) int {
	if keep == nil {
		return q
	}
	i, _ := slices.BinarySearch(keep, q)
	return i
}

// bindProjection binds the SELECT list against the joined layout cols;
// stars holds the slots in cols of each star item's columns. SELECT * over
// the FROM items in written order passes the input relation through. b,
// when set, shares literal evalFns.
func bindProjection(b *binder, items []SelectItem, stars [][]int, cols []colMeta, written bool) (*projection, error) {
	if len(items) == 1 && items[0].Star && items[0].Table == "" && written {
		return &projection{passThrough: true}, nil
	}
	pr := &projection{stars: stars}
	for _, it := range items {
		if it.Star {
			pr.fns = append(pr.fns, nil)
			continue
		}
		var fn evalFn
		if lit, ok := it.Expr.(*Lit); ok && b != nil {
			fn = b.lit(lit.Val)
		} else {
			var err error
			if fn, err = bindExpr(it.Expr, cols); err != nil {
				return nil, err
			}
		}
		pr.fns = append(pr.fns, fn)
	}
	return pr, nil
}

// itemCol names the output column of a computed SELECT item.
func itemCol(it SelectItem) colMeta {
	if it.Alias != "" {
		return colMeta{name: strings.ToLower(it.Alias)}
	}
	if cr, ok := it.Expr.(*ColRef); ok {
		return colMeta{table: strings.ToLower(cr.Table), name: strings.ToLower(cr.Name)}
	}
	return colMeta{name: strings.ToLower(it.Expr.String())}
}

// bindOrderBy binds each ORDER BY key to the output columns when its
// columns resolve there, otherwise to the aligned input columns (nil when
// the input rows are not aligned with the output).
func bindOrderBy(order []OrderItem, out, in []colMeta) (*sortPlan, error) {
	sp := &sortPlan{keys: make([]evalFn, len(order)), desc: make([]bool, len(order)), fromInput: make([]bool, len(order))}
	for i, o := range order {
		sp.desc[i] = o.Desc
		cols := out
		if !resolves(ColumnRefs(o.Expr), out) {
			if in == nil {
				return nil, fmt.Errorf("sqldb: cannot resolve ORDER BY expression %s", o.Expr)
			}
			cols, sp.fromInput[i] = in, true
		}
		fn, err := bindExpr(o.Expr, cols)
		if err != nil {
			return nil, err
		}
		sp.keys[i] = fn
	}
	return sp, nil
}

// ref binds one FROM item and returns it with its column layout. An
// explicit JOIN emits only the columns of its full layout (see layout)
// that need marks, nil marking all; a table or a derived table always
// yields every column, so its rows stay shared.
func (b *binder) ref(tr TableRef, need []bool) (*prepRef, []colMeta, error) {
	switch t := tr.(type) {
	case *BaseTable:
		tab := b.db.Table(t.Name)
		if tab == nil {
			return nil, nil, fmt.Errorf("sqldb: unknown table %s", t.Name)
		}
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		k := scanKey{tab, alias}
		cols, ok := b.scans[k]
		if !ok {
			cols = make([]colMeta, len(tab.lowerCols))
			for i, name := range tab.lowerCols {
				cols[i] = colMeta{table: alias, name: name}
			}
			b.scans[k] = cols
		}
		return &prepRef{name: t.Name, table: tab}, cols, nil
	case *SubqueryTable:
		d, err := b.derived(t.Query)
		if err != nil {
			return nil, nil, err
		}
		alias := strings.ToLower(t.Alias)
		cols := make([]colMeta, len(d.chain.cols))
		for i, c := range d.chain.cols {
			cols[i] = colMeta{table: alias, name: c.name}
		}
		return &prepRef{name: t.Alias, sub: d.chain, id: d.id}, cols, nil
	case *JoinRef:
		return b.join(t, need)
	}
	return nil, nil, fmt.Errorf("sqldb: unsupported table reference %T", tr)
}

// layout returns the columns a FROM item yields before narrowing: an
// explicit JOIN's are its sides' (a NATURAL join's shared ones once).
func (b *binder) layout(tr TableRef) ([]colMeta, error) {
	t, ok := tr.(*JoinRef)
	if !ok {
		_, cols, err := b.ref(tr, nil)
		return cols, err
	}
	l, err := b.layout(t.L)
	if err != nil {
		return nil, err
	}
	r, err := b.layout(t.R)
	if err != nil {
		return nil, err
	}
	joined := append(slices.Clip(l), r...)
	if t.Kind == JoinNatural {
		_, out := naturalKeys(l, r)
		return colsAt(joined, out), nil
	}
	return joined, nil
}

// join binds an explicit JOIN that emits the columns of its full layout
// marked in need. It reads its sides at those columns, its equi keys and
// its residual's columns; a side that is itself a JOIN emits only those.
func (b *binder) join(t *JoinRef, need []bool) (*prepRef, []colMeta, error) {
	lfull, err := b.layout(t.L)
	if err != nil {
		return nil, nil, err
	}
	rfull, err := b.layout(t.R)
	if err != nil {
		return nil, nil, err
	}
	lw := len(lfull)
	joined := append(slices.Clip(lfull), rfull...)
	j := &prepJoin{kind: t.Kind, detail: strings.ToLower(t.Kind.String())}
	// out lists the slots of joined the join yields before narrowing.
	var keys []equiKey
	var pred Expr
	var out []int
	if t.Kind == JoinNatural {
		// Join on every same-named column pair and keep the shared
		// columns once, from the left side.
		keys, out = naturalKeys(lfull, rfull)
	} else {
		if t.Kind != JoinCross { // inner and left
			var residual []Expr
			keys, residual = extractEquiKeys(Conjuncts(t.On), lfull, rfull)
			pred = t.On
			if len(keys) > 0 {
				pred = AndAll(residual)
			}
		}
		out = make([]int, len(joined))
		for i := range out {
			out[i] = i
		}
	}
	reads := make([]bool, len(joined))
	var emit, check []int
	for i, q := range out {
		if need == nil || need[i] {
			reads[q] = true
			emit = append(emit, q)
		}
	}
	for _, k := range keys {
		reads[k.lSlot], reads[lw+k.rSlot] = true, true
	}
	if pred != nil {
		for _, r := range ColumnRefs(pred) {
			if q := findCol(joined, r.Table, r.Name); q >= 0 {
				reads[q] = true
				check = append(check, q)
			}
		}
		slices.Sort(check)
		check = slices.Compact(check)
	}
	if j.l, _, err = b.ref(t.L, reads[:lw]); err != nil {
		return nil, nil, err
	}
	if j.r, _, err = b.ref(t.R, reads[lw:]); err != nil {
		return nil, nil, err
	}
	lkeep, rkeep := kept(t.L, reads[:lw]), kept(t.R, reads[lw:])
	for _, k := range keys {
		j.keys = append(j.keys, equiKey{slotIn(lkeep, k.lSlot), slotIn(rkeep, k.rSlot)})
	}
	j.emit = pickOf(emit, lw, lkeep, rkeep)
	if pred != nil {
		j.check = pickOf(check, lw, lkeep, rkeep)
		if j.pred, err = bindExpr(pred, colsAt(joined, check)); err != nil {
			return nil, nil, err
		}
	}
	return &prepRef{join: j}, colsAt(joined, emit), nil
}

// kept lists the full slots of FROM item tr that the layout ref(tr, need)
// returns: nil when tr yields every column.
func kept(tr TableRef, need []bool) []int {
	if _, ok := tr.(*JoinRef); !ok {
		return nil
	}
	keep := make([]int, 0, len(need))
	for i, ok := range need {
		if ok {
			keep = append(keep, i)
		}
	}
	return keep
}

// naturalKeys pairs each column of l with the first unpaired same-named
// column of r, and lists the slots of l++r a NATURAL join yields: l's
// columns, then r's unpaired ones.
func naturalKeys(l, r []colMeta) (keys []equiKey, out []int) {
	rUsed := make([]bool, len(r))
	for ls, lc := range l {
		for rs, rc := range r {
			if !rUsed[rs] && lc.name == rc.name {
				keys = append(keys, equiKey{ls, rs})
				rUsed[rs] = true
				break
			}
		}
	}
	for i := range l {
		out = append(out, i)
	}
	for i := range r {
		if !rUsed[i] {
			out = append(out, len(l)+i)
		}
	}
	return keys, out
}

// lit returns the shared evalFn of a literal value: unfolded arms repeat
// the same constant tag and datatype columns.
func (b *binder) lit(v Value) evalFn {
	fn, ok := b.lits[v]
	if !ok {
		fn = func(Row) (Value, error) { return v, nil }
		b.lits[v] = fn
	}
	return fn
}

// extractEquiKeys splits conjuncts into equi-join keys between the layouts
// l and r and residual predicates.
func extractEquiKeys(conjuncts []Expr, l, r []colMeta) (keys []equiKey, residual []Expr) {
	for _, c := range conjuncts {
		if k, ok := equiKeyOf(c, l, r); ok {
			keys = append(keys, k)
		} else {
			residual = append(residual, c)
		}
	}
	return keys, residual
}

// equiKeyOf returns conjunct c as an equi-join key between the layouts l
// and r: a column equality is a key only when each column resolves on
// exactly one side.
func equiKeyOf(c Expr, l, r []colMeta) (equiKey, bool) {
	b, ok := c.(*BinOp)
	if !ok || b.Op != OpEq {
		return equiKey{}, false
	}
	lc, lok := b.L.(*ColRef)
	rc, rok := b.R.(*ColRef)
	if !lok || !rok {
		return equiKey{}, false
	}
	ls := findCol(l, lc.Table, lc.Name)
	rs := findCol(r, rc.Table, rc.Name)
	if ls >= 0 && rs >= 0 && findCol(r, lc.Table, lc.Name) < 0 && findCol(l, rc.Table, rc.Name) < 0 {
		return equiKey{ls, rs}, true
	}
	// try swapped orientation
	ls2 := findCol(l, rc.Table, rc.Name)
	rs2 := findCol(r, lc.Table, lc.Name)
	if ls2 >= 0 && rs2 >= 0 && findCol(r, rc.Table, rc.Name) < 0 && findCol(l, lc.Table, lc.Name) < 0 {
		return equiKey{ls2, rs2}, true
	}
	return equiKey{}, false
}
