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
// each join step's equi-key slot pairs and residual, builds the evalFns of
// filters, residuals, SELECT items, ORDER BY keys and aggregates, and
// numbers the distinct derived tables. Execute reads table rows, runs the
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
	pending []Expr
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

// equiLink is one column-equality conjunct for the greedy join order: the
// FROM items each of its two columns resolves in.
type equiLink struct {
	l, r []bool
}

// selectPlan is a SELECT block bound for one join order: the join steps,
// then everything bound against the joined layout.
type selectPlan struct {
	// order lists the FROM items in join order; nil is the written order.
	order []int
	steps []joinStep
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

// joinStep joins the next FROM item of the order into the running result.
type joinStep struct {
	keys []equiKey
	// pred is the residual predicate (all usable conjuncts when keys is
	// empty); nil when there is none.
	pred evalFn
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

// prepJoin is a bound explicit JOIN.
type prepJoin struct {
	kind JoinKind
	l, r *prepRef
	keys []equiKey
	// pred is the residual when keys is non-empty, the whole ON predicate
	// otherwise; nil when there is none.
	pred evalFn
	// keep lists the slots a NATURAL join keeps of l's columns then r's.
	keep []int
	// rWidth is r's column count, the NULL padding of a LEFT join.
	rWidth int
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
		r, cols, err := b.ref(tr)
		if err != nil {
			return nil, err
		}
		ps.from[i], layouts[i] = r, cols
	}
	// A conjunct that binds on one FROM item filters the first such item
	// before any join.
	var pending []Expr
	for _, c := range Conjuncts(s.Where) {
		placed := false
		for i, cols := range layouts {
			if fn, err := bindExpr(c, cols); err == nil {
				ps.pushed = append(ps.pushed, pushedPred{item: i, fn: fn, expr: c})
				placed = true
				break
			}
		}
		if !placed {
			pending = append(pending, c)
		}
	}
	if b.profile == ProfileSortMerge {
		ps.sm = &sortMerge{stmt: s, layouts: layouts, pending: pending, links: equiLinks(pending, layouts)}
	}
	var err error
	ps.written, err = bindPlan(b, s, layouts, pending, nil)
	return ps, err
}

// equiLinks records, for every column-equality conjunct, where its two
// columns resolve.
func equiLinks(conjuncts []Expr, layouts [][]colMeta) []equiLink {
	var links []equiLink
	for _, c := range conjuncts {
		e, ok := c.(*BinOp)
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
// one join order (nil: the written order): each step consumes the pending
// conjuncts that bind on the columns joined so far, split into equi keys
// and a residual; the SELECT list, grouping and ORDER BY bind against the
// joined layout. b, when set, shares literal evalFns across the
// statement.
func bindPlan(b *binder, s *SelectStmt, layouts [][]colMeta, pending []Expr, order []int) (*selectPlan, error) {
	p := &selectPlan{order: order}
	n := len(layouts)
	// Every step's layout is a prefix of the order's full layout, which
	// one FROM item alone shares with its scan.
	var all []colMeta
	if n == 1 {
		all = layouts[0]
	} else if n > 1 {
		width := 0
		for _, cols := range layouts {
			width += len(cols)
		}
		all = make([]colMeta, 0, width)
		for k := range n {
			all = append(all, layouts[p.item(k)]...)
		}
	}
	var cur []colMeta
	for k := range n {
		next := layouts[p.item(k)]
		if k == 0 {
			cur = next
			continue
		}
		combined := all[:len(cur)+len(next)]
		var usable, still []Expr
		for _, c := range pending {
			if _, err := bindExpr(c, combined); err == nil {
				usable = append(usable, c)
			} else {
				still = append(still, c)
			}
		}
		var st joinStep
		var residual []Expr
		st.keys, residual = extractEquiKeys(usable, cur, next)
		if res := AndAll(residual); res != nil {
			var err error
			if st.pred, err = bindExpr(res, combined); err != nil {
				return nil, err
			}
		}
		p.steps = append(p.steps, st)
		cur, pending = combined, still
	}
	if rest := AndAll(pending); rest != nil {
		var err error
		if p.rest, err = bindExpr(rest, cur); err != nil {
			return nil, err
		}
		p.restExpr = rest
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range s.Items {
		if !it.Star && exprHasAggregate(it.Expr) {
			hasAgg = true
		}
	}
	var err error
	if hasAgg {
		p.agg, p.out, err = bindAggregate(s, cur)
	} else {
		p.proj, p.out, err = bindProjection(b, s.Items, layouts, p, cur)
	}
	if err != nil {
		return nil, err
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

// bindProjection binds the SELECT list against the joined layout cols of
// plan p's join order over FROM items laid out as layouts. Stars expand in
// written FROM order whatever the join order, so a block's output layout
// never depends on the data. b, when set, shares literal evalFns.
func bindProjection(b *binder, items []SelectItem, layouts [][]colMeta, p *selectPlan, cols []colMeta) (*projection, []colMeta, error) {
	if len(items) == 1 && items[0].Star && items[0].Table == "" && p.order == nil {
		return &projection{passThrough: true}, cols, nil
	}
	pr := &projection{}
	var out []colMeta
	var offset []int
	for _, it := range items {
		if it.Star {
			if offset == nil {
				// offset[i] is where FROM item i's columns start in cols.
				offset = make([]int, len(layouts))
				at := 0
				for k := range layouts {
					offset[p.item(k)] = at
					at += len(layouts[p.item(k)])
				}
			}
			var slots []int
			q := strings.ToLower(it.Table)
			for i, f := range layouts {
				for j, c := range f {
					if q == "" || c.table == q {
						out = append(out, c)
						slots = append(slots, offset[i]+j)
					}
				}
			}
			if len(slots) == 0 {
				return nil, nil, fmt.Errorf("sqldb: %s.* matches no columns", it.Table)
			}
			pr.fns = append(pr.fns, nil)
			pr.stars = append(pr.stars, slots)
			continue
		}
		var fn evalFn
		if lit, ok := it.Expr.(*Lit); ok && b != nil {
			fn = b.lit(lit.Val)
		} else {
			var err error
			if fn, err = bindExpr(it.Expr, cols); err != nil {
				return nil, nil, err
			}
		}
		out = append(out, itemCol(it))
		pr.fns = append(pr.fns, fn)
	}
	return pr, out, nil
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

// bindOrderBy binds each ORDER BY key to the output columns when it
// resolves there, otherwise to the aligned input columns (nil when the
// input rows are not aligned with the output).
func bindOrderBy(order []OrderItem, out, in []colMeta) (*sortPlan, error) {
	sp := &sortPlan{keys: make([]evalFn, len(order)), desc: make([]bool, len(order)), fromInput: make([]bool, len(order))}
	for i, o := range order {
		sp.desc[i] = o.Desc
		if fn, err := bindExpr(o.Expr, out); err == nil {
			sp.keys[i] = fn
			continue
		}
		if in == nil {
			return nil, fmt.Errorf("sqldb: cannot resolve ORDER BY expression %s", o.Expr)
		}
		fn, err := bindExpr(o.Expr, in)
		if err != nil {
			return nil, err
		}
		sp.keys[i], sp.fromInput[i] = fn, true
	}
	return sp, nil
}

// ref binds one FROM item and returns it with its column layout.
func (b *binder) ref(tr TableRef) (*prepRef, []colMeta, error) {
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
		return b.join(t)
	}
	return nil, nil, fmt.Errorf("sqldb: unsupported table reference %T", tr)
}

func (b *binder) join(t *JoinRef) (*prepRef, []colMeta, error) {
	l, lcols, err := b.ref(t.L)
	if err != nil {
		return nil, nil, err
	}
	r, rcols, err := b.ref(t.R)
	if err != nil {
		return nil, nil, err
	}
	j := &prepJoin{kind: t.Kind, l: l, r: r, rWidth: len(rcols), detail: strings.ToLower(t.Kind.String())}
	joined := make([]colMeta, 0, len(lcols)+len(rcols))
	joined = append(append(joined, lcols...), rcols...)
	switch t.Kind {
	case JoinCross:
	case JoinNatural:
		// Join on every same-named column pair and keep the shared
		// columns once, from the left side.
		rUsed := make([]bool, len(rcols))
		for ls, lc := range lcols {
			for rs, rc := range rcols {
				if !rUsed[rs] && lc.name == rc.name {
					j.keys = append(j.keys, equiKey{ls, rs})
					rUsed[rs] = true
					break
				}
			}
		}
		for i := range lcols {
			j.keep = append(j.keep, i)
		}
		for i := range rcols {
			if !rUsed[i] {
				j.keep = append(j.keep, len(lcols)+i)
			}
		}
		kept := make([]colMeta, len(j.keep))
		for i, s := range j.keep {
			kept[i] = joined[s]
		}
		return &prepRef{join: j}, kept, nil
	default: // inner and left
		keys, residual := extractEquiKeys(Conjuncts(t.On), lcols, rcols)
		pred := t.On
		if len(keys) > 0 {
			j.keys, pred = keys, AndAll(residual)
		}
		if pred != nil {
			if j.pred, err = bindExpr(pred, joined); err != nil {
				return nil, nil, err
			}
		}
	}
	return &prepRef{join: j}, joined, nil
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
// l and r and residual predicates. A column equality is a key only when
// each column resolves on exactly one side.
func extractEquiKeys(conjuncts []Expr, l, r []colMeta) (keys []equiKey, residual []Expr) {
	for _, c := range conjuncts {
		if b, ok := c.(*BinOp); ok && b.Op == OpEq {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				ls := findCol(l, lc.Table, lc.Name)
				rs := findCol(r, rc.Table, rc.Name)
				if ls >= 0 && rs >= 0 && findCol(r, lc.Table, lc.Name) < 0 && findCol(l, rc.Table, rc.Name) < 0 {
					keys = append(keys, equiKey{ls, rs})
					continue
				}
				// try swapped orientation
				ls2 := findCol(l, rc.Table, rc.Name)
				rs2 := findCol(r, lc.Table, lc.Name)
				if ls2 >= 0 && rs2 >= 0 && findCol(r, rc.Table, rc.Name) < 0 && findCol(l, lc.Table, lc.Name) < 0 {
					keys = append(keys, equiKey{ls2, rs2})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}
