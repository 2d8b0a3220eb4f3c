package sqldb

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"npdbench/internal/obs"
)

// Result is the output of a query: named columns and rows.
type Result struct {
	Columns []string
	Rows    []Row
}

// Query parses and executes a SELECT statement.
func (db *Database) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecSelect(stmt)
}

// ExecOptions configures one statement execution.
type ExecOptions struct {
	// Parallelism caps the workers any one operator may fan out to; <= 1
	// executes fully sequentially on the calling goroutine (the classic
	// behaviour). Results are bit-identical at any setting.
	Parallelism int
	// Pool bounds the helper workers shared across statements and
	// queries. nil with Parallelism > 1 gives this statement a private
	// pool of its own.
	Pool *Pool
	// Stats, when non-nil, accumulates the parallel-operator counters of
	// this execution.
	Stats *ExecStats
	// Usage, when non-nil, receives the per-query resource accounting of
	// this execution: base-table rows scanned, operator output rows and
	// estimated bytes materialized, subquery-cache hits. The tracker is
	// atomic, so one instance is shared across a query's statements and
	// parallel union arms. Accounting is batched per operator output,
	// never per row.
	Usage *obs.Usage
	// Ctx, when non-nil, carries the query's cancellation signal: a
	// client disconnect or per-query deadline makes operators stop at the
	// next morsel/operator boundary and return Ctx.Err(). Nil executes
	// to completion.
	Ctx context.Context
	// Deprecated: BatchSize is ignored. It selected the vectorized batch
	// executor, which was removed; the row-at-a-time executor is the only
	// one. The field stays so existing callers keep compiling.
	BatchSize int
}

// ExecSelect executes a parsed SELECT statement (including UNION chains)
// sequentially.
func (db *Database) ExecSelect(s *SelectStmt) (*Result, error) {
	return db.ExecSelectOpts(s, ExecOptions{})
}

// ExecSelectOpts executes a parsed SELECT statement under the given
// execution options (intra-query parallelism).
func (db *Database) ExecSelectOpts(s *SelectStmt, opt ExecOptions) (*Result, error) {
	ctx := newExecCtx(opt, nil)
	rel, err := db.evalSelectChain(ctx, s)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: make([]string, len(rel.cols)), Rows: rel.rows}
	for i, c := range rel.cols {
		res.Columns[i] = c.name
	}
	return res, nil
}

// newExecCtx builds the root context of one statement execution.
func newExecCtx(opt ExecOptions, prof *OpProfile) *execCtx {
	ctx := &execCtx{cache: newStmtCache(), prof: prof, usage: opt.Usage,
		par: parState{par: 1, stats: opt.Stats, ctx: opt.Ctx}}
	if opt.Parallelism > 1 {
		ctx.par.par = opt.Parallelism
		ctx.par.pool = opt.Pool
		if ctx.par.pool == nil {
			ctx.par.pool = NewPool(opt.Parallelism)
		}
		if ctx.par.stats == nil {
			ctx.par.stats = &ExecStats{}
		}
	}
	return ctx
}

// execCtx carries per-statement execution state. The cache is shared by
// every child context of the statement (union arms evaluating in parallel
// included); prof and parNote belong to exactly one goroutine at a time.
type execCtx struct {
	cache *stmtCache
	// prof, when non-nil, is the operator-profile node currently being
	// built (EXPLAIN ANALYZE collection; see ProfileSelect). Operators
	// append children via addOp/pushOp, which no-op when prof is nil.
	prof *OpProfile
	// par is the statement's execution driver: worker cap, pool, counters
	// and cancellation signal (see pool.go).
	par parState
	// parNote is the pending workers/partitions annotation of the last
	// parallel operator (see setParNote/takeParNote in pool.go).
	parNote string
	// usage is the per-query resource tracker (shared, atomic; nil =
	// accounting off, one nil check per operator).
	usage *obs.Usage
	// scratch is a reusable byte buffer for profile details, so
	// enabled-tracing formatting on the buildFrom hot path costs one
	// string allocation instead of fmt boxing (goroutine-local: each
	// parallel union arm owns its child context).
	scratch []byte
	// rowBufs is the reusable output buffer of filter and hash join,
	// borrowed by each operator's worker 0 (see borrowRows in pool.go).
	// Goroutine-local like parNote.
	rowBufs *runOut[Row]
}

// stmtCache is the state shared across one statement's evaluation: derived
// tables that occur in many union arms (OBDA unfoldings repeat the same
// mapping views) are materialized once, and sorted row orders are computed
// once per (relation, column) so the sort-merge profile sorts each shared
// mapping view once per statement, not once per union arm (what a real
// server's indexes amortize). Entries are singleflighted: when parallel
// union arms race to the same subquery or sort order, one computes and the
// rest wait.
type stmtCache struct {
	mu         sync.Mutex
	subqueries map[string]*subqueryEntry   // guarded by mu
	sortOrders map[sortKey]*sortOrderEntry // guarded by mu
}

func newStmtCache() *stmtCache {
	return &stmtCache{
		subqueries: make(map[string]*subqueryEntry),
		sortOrders: make(map[sortKey]*sortOrderEntry),
	}
}

type subqueryEntry struct {
	once sync.Once
	rel  *relation
	err  error
}

type sortOrderEntry struct {
	once sync.Once
	idx  []int
}

type sortKey struct {
	rel  *relation
	slot int
}

// sortedOrder is the one context-aware sort-order helper: it serves the
// statement cache when the context has one and falls back to a direct
// computation for standalone joins (nil context).
func (ctx *execCtx) sortedOrder(r *relation, slot int) []int {
	if ctx == nil || ctx.cache == nil {
		return computeSortedOrder(r, slot)
	}
	ctx.cache.mu.Lock()
	e, ok := ctx.cache.sortOrders[sortKey{r, slot}]
	if !ok {
		e = &sortOrderEntry{}
		ctx.cache.sortOrders[sortKey{r, slot}] = e
	}
	ctx.cache.mu.Unlock()
	e.once.Do(func() { e.idx = computeSortedOrder(r, slot) })
	return e.idx
}

// cancelled returns the statement's cancellation error once it is done.
// Nil-safe on a nil receiver and a nil signal — row loops never pay more
// than two nil checks per poll.
func (ctx *execCtx) cancelled() error {
	if ctx == nil {
		return nil
	}
	return ctx.par.cancelled()
}

// approxValueBytes is the estimated materialized footprint of one Value
// cell (struct header plus average string payload) used by the bytes
// accounting; an estimate is enough for budget enforcement.
const approxValueBytes = 48

// accountScan records base-table rows read into the usage tracker.
func (ctx *execCtx) accountScan(rows int) {
	if ctx.usage != nil {
		ctx.usage.AddRowsScanned(int64(rows))
	}
}

// accountRows records one operator's output relation: rows produced plus
// their estimated materialized bytes. One batched add per operator.
func (ctx *execCtx) accountRows(rel *relation) {
	if ctx.usage != nil && rel != nil {
		n := int64(len(rel.rows))
		ctx.usage.AddRowsProduced(n, n*int64(len(rel.cols))*approxValueBytes)
	}
}

// notePushdown is the pushdown-filter profile recorder of buildFrom — the
// hottest note site (once per conjunct per relation). The non-variadic
// signature avoids boxing its operands and the scratch buffer makes each
// recorded line cost one string allocation.
func (ctx *execCtx) notePushdown(pred Expr, before, after int) {
	note := ctx.takeParNote() // consume even when nothing records it
	if ctx.prof == nil {
		return
	}
	b := append(ctx.scratch[:0], "pushdown "...)
	b = append(b, pred.String()...)
	b = append(b, note...)
	node := ctx.addOp("filter", string(b))
	node.SetInOut(before, after)
	ctx.scratch = b[:0]
}

// noteJoin records one join-planning step (algorithm, equi-key count,
// input/output cardinalities) into the profile, replacing a variadic
// Sprintf on the buildFrom join loop.
func (ctx *execCtx) noteJoin(algo string, eqKeys, lrows, rrows, out int) {
	note := ctx.takeParNote()
	if ctx.prof == nil {
		return
	}
	b := strconv.AppendInt(ctx.scratch[:0], int64(eqKeys), 10)
	b = append(b, " equi keys"...)
	b = append(b, note...)
	node := ctx.addOp(algo, string(b))
	node.SetJoin(lrows, rrows, out, joinBuildRows(algo, lrows, rrows), joinProbes(algo, lrows, rrows))
	ctx.scratch = b[:0]
}

// addOpf is addOp with lazy detail formatting: the fmt cost is paid only
// when a profile is actually being collected.
func (ctx *execCtx) addOpf(op string, format string, args ...any) *OpProfile {
	if ctx.prof == nil {
		return nil
	}
	return ctx.addOp(op, fmt.Sprintf(format, args...))
}

func (db *Database) evalSelectChain(ctx *execCtx, s *SelectStmt) (*relation, error) {
	if s.Union == nil {
		return db.evalSelect(ctx, s)
	}
	op := "union all"
	if !s.UnionAll {
		op = "union"
	}
	arms := []*SelectStmt{s}
	for u := s.Union; u != nil; u = u.Union {
		arms = append(arms, u)
	}
	node, restore := ctx.pushOp(op, "")
	head, workers, err := db.evalUnionArms(ctx, arms)
	restore()
	if err != nil {
		return nil, err
	}
	ctx.accountRows(head)
	if node != nil {
		detail := fmt.Sprintf("%d arms", len(arms))
		if workers > 1 {
			detail += fmt.Sprintf(" [workers=%d]", workers)
		}
		node.SetDetail(detail)
		node.SetRows(len(head.rows))
	}
	if !s.UnionAll {
		before := len(head.rows)
		head = distinctRows(head)
		ctx.accountRows(head)
		ctx.addOp("distinct", "").SetInOut(before, len(head.rows))
	}
	return head, nil
}

// evalUnionArms evaluates the arms of a union chain — the dominant cost of
// unfolded OBDA queries, whose UCQs have dozens of arms — as one task per
// arm, fanned out when the statement has workers to spare. Arm outputs
// concatenate in arm order, so the merged relation is the same at every
// worker count. Worker 0 runs its arms on the statement's own context;
// each helper builds one child context that shares the statement cache,
// driver and usage tracker but owns its profile cursor, notes and scratch.
// Every arm gets its own profile node, created up front in arm order.
func (db *Database) evalUnionArms(ctx *execCtx, arms []*SelectStmt) (*relation, int, error) {
	fan := ctx.par.fanOut(len(arms), minParallelRows)
	nodes := make([]*OpProfile, len(arms))
	if ctx.prof != nil {
		for i := range arms {
			nodes[i] = ctx.addOp("arm", fmt.Sprintf("#%d", i+1))
		}
	}
	if fan {
		ctx.par.stats.UnionArms.Add(int64(len(arms)))
	}
	rels := make([]*relation, len(arms))
	wctx := make([]*execCtx, ctx.par.slots(fan))
	wctx[0] = ctx
	union := ctx.prof
	workers, err := ctx.par.run(fan, len(arms), func(w, i int) error {
		c := wctx[w]
		if c == nil {
			c = &execCtx{cache: ctx.cache, par: ctx.par, usage: ctx.usage}
			wctx[w] = c
		}
		c.prof = nodes[i]
		start := obs.Now()
		rel, err := db.evalSelect(c, arms[i])
		nodes[i].SetTime(obs.Since(start))
		if err != nil {
			return err
		}
		nodes[i].SetRows(len(rel.rows))
		rels[i] = rel
		return nil
	})
	ctx.prof = union
	if err != nil {
		return nil, 0, err
	}
	head := rels[0]
	total := 0
	for _, r := range rels {
		total += len(r.rows)
	}
	// A fresh slice: an arm's rows can alias a base table (star fast
	// path), so appending into one would write through to shared storage.
	rows := make([]Row, 0, total)
	for _, r := range rels {
		if len(r.cols) != len(head.cols) {
			return nil, 0, fmt.Errorf("sqldb: UNION arms have %d vs %d columns", len(head.cols), len(r.cols))
		}
		rows = append(rows, r.rows...)
	}
	return &relation{cols: head.cols, rows: rows}, workers, nil
}

// evalSelect executes a single SELECT block (no union chaining).
func (db *Database) evalSelect(ctx *execCtx, s *SelectStmt) (*relation, error) {
	if err := ctx.cancelled(); err != nil {
		return nil, err
	}
	node, restore := ctx.pushOp("select", "")
	out, err := db.evalSelectBody(ctx, s)
	restore()
	if err != nil {
		return nil, err
	}
	node.SetRows(len(out.rows))
	return out, nil
}

func (db *Database) evalSelectBody(ctx *execCtx, s *SelectStmt) (*relation, error) {
	input, remaining, err := db.buildFrom(ctx, s.From, Conjuncts(s.Where))
	if err != nil {
		return nil, err
	}
	if rest := AndAll(remaining); rest != nil {
		before := len(input.rows)
		input, err = filterRelation(ctx, input, rest)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(input)
		note := ctx.takeParNote()
		if ctx.prof != nil {
			ctx.addOp("filter", rest.String()+note).SetInOut(before, len(input.rows))
		}
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range s.Items {
		if !it.Star && exprHasAggregate(it.Expr) {
			hasAgg = true
		}
	}

	var out *relation
	var inputAligned []Row // input rows aligned to output rows (for ORDER BY)
	if hasAgg {
		out, err = db.evalAggregate(s, input)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(out)
		ctx.addOpf("aggregate", "%d groups", len(out.rows)).SetInOut(len(input.rows), len(out.rows))
	} else {
		out, inputAligned, err = projectItems(s.Items, input)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(out)
		ctx.addOpf("project", "%d columns", len(out.cols)).SetRows(len(out.rows))
	}

	if s.Distinct {
		before := len(out.rows)
		out = distinctRows(out)
		inputAligned = nil
		ctx.accountRows(out)
		ctx.addOp("distinct", "").SetInOut(before, len(out.rows))
	}

	if len(s.OrderBy) > 0 {
		if err := orderRelation(s.OrderBy, out, input.cols, inputAligned); err != nil {
			return nil, err
		}
		ctx.addOpf("sort", "%d keys", len(s.OrderBy)).SetRows(len(out.rows))
	}

	if s.Offset > 0 || (s.Limit >= 0 && s.Limit < len(out.rows)) {
		before := len(out.rows)
		if s.Offset > 0 {
			if s.Offset >= len(out.rows) {
				out.rows = nil
			} else {
				out.rows = out.rows[s.Offset:]
			}
		}
		if s.Limit >= 0 && s.Limit < len(out.rows) {
			out.rows = out.rows[:s.Limit]
		}
		ctx.addOp("limit", "").SetInOut(before, len(out.rows))
	}
	return out, nil
}

// buildFrom materializes the FROM clause. WHERE conjuncts are consumed for
// pushdown and join planning; the unconsumed ones are returned.
func (db *Database) buildFrom(ctx *execCtx, from []TableRef, conjuncts []Expr) (*relation, []Expr, error) {
	if len(from) == 0 {
		// SELECT without FROM: a single empty row.
		return &relation{rows: []Row{{}}}, conjuncts, nil
	}
	rels := make([]*relation, len(from))
	for i, tr := range from {
		r, err := db.buildRef(ctx, tr)
		if err != nil {
			return nil, nil, err
		}
		rels[i] = r
	}
	// Push single-relation conjuncts.
	var pending []Expr
	for _, c := range conjuncts {
		placed := false
		for i, r := range rels {
			if bindable(c, r.cols) {
				before := len(r.rows)
				fr, err := filterRelation(ctx, r, c)
				if err != nil {
					return nil, nil, err
				}
				ctx.accountRows(fr)
				ctx.notePushdown(c, before, len(fr.rows))
				rels[i] = fr
				placed = true
				break
			}
		}
		if !placed {
			pending = append(pending, c)
		}
	}
	// Join planning.
	order := make([]int, len(rels))
	for i := range order {
		order[i] = i
	}
	if db.Profile == ProfileSortMerge {
		// Greedy: start from the smallest relation; each step joins in the
		// smallest relation connected by an equi predicate (else smallest).
		order = greedyOrder(rels, pending)
	}
	cur := rels[order[0]]
	for step := 1; step < len(order); step++ {
		if err := ctx.cancelled(); err != nil {
			return nil, nil, err
		}
		next := rels[order[step]]
		// Conjuncts fully bindable on cur+next become the residual predicate.
		combinedCols := append(append([]colMeta{}, cur.cols...), next.cols...)
		var usable, stillPending []Expr
		for _, c := range pending {
			if bindable(c, combinedCols) {
				usable = append(usable, c)
			} else {
				stillPending = append(stillPending, c)
			}
		}
		eq, residual := extractEquiKeys(usable, cur, next)
		lrows, rrows := len(cur.rows), len(next.rows)
		var algo string
		var err error
		switch {
		case len(eq) > 0 && db.Profile == ProfileSortMerge:
			algo = "merge join"
			cur, err = mergeJoin(ctx, cur, next, eq, AndAll(residual))
		case len(eq) > 0:
			algo = "hash join"
			cur, err = hashJoin(ctx, cur, next, eq, AndAll(residual))
		default:
			algo = "nested loop"
			cur, err = nestedLoopJoin(ctx, cur, next, AndAll(residual))
		}
		if err != nil {
			return nil, nil, err
		}
		ctx.accountRows(cur)
		ctx.noteJoin(algo, len(eq), lrows, rrows, len(cur.rows))
		pending = stillPending
	}
	return cur, pending, nil
}

// joinBuildRows reports the rows fed into a join's build structure: the
// smaller side for a hash join (its hash table is an ephemeral index),
// both sides for a merge join (sorted orders), none for a nested loop.
func joinBuildRows(algo string, lrows, rrows int) int {
	switch algo {
	case "hash join":
		if lrows < rrows {
			return lrows
		}
		return rrows
	case "merge join":
		return lrows + rrows
	}
	return 0
}

// joinProbes reports point lookups against the build structure (hash join:
// one probe per probe-side row) or, for a nested loop, the row pairs
// examined — the scan-versus-probe measure of the profile.
func joinProbes(algo string, lrows, rrows int) int {
	switch algo {
	case "hash join":
		if lrows < rrows {
			return rrows
		}
		return lrows
	case "nested loop":
		return lrows * rrows
	}
	return 0
}

// greedyOrder returns a join order for the sort-merge profile: smallest
// relation first, then repeatedly the smallest relation that shares an
// equality predicate with what has been joined so far.
func greedyOrder(rels []*relation, conjuncts []Expr) []int {
	n := len(rels)
	used := make([]bool, n)
	order := make([]int, 0, n)
	// seed: smallest
	best := 0
	for i := 1; i < n; i++ {
		if len(rels[i].rows) < len(rels[best].rows) {
			best = i
		}
	}
	order = append(order, best)
	used[best] = true
	curCols := append([]colMeta{}, rels[best].cols...)
	for len(order) < n {
		cand := -1
		candConnected := false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := hasEquiBetween(conjuncts, curCols, rels[i].cols)
			if cand == -1 ||
				(connected && !candConnected) ||
				(connected == candConnected && len(rels[i].rows) < len(rels[cand].rows)) {
				cand = i
				candConnected = connected
			}
		}
		order = append(order, cand)
		used[cand] = true
		curCols = append(curCols, rels[cand].cols...)
	}
	return order
}

func hasEquiBetween(conjuncts []Expr, lcols, rcols []colMeta) bool {
	for _, c := range conjuncts {
		b, ok := c.(*BinOp)
		if !ok || b.Op != OpEq {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		inL1 := findCol(lcols, lc.Table, lc.Name) >= 0
		inR1 := findCol(rcols, rc.Table, rc.Name) >= 0
		inL2 := findCol(lcols, rc.Table, rc.Name) >= 0
		inR2 := findCol(rcols, lc.Table, lc.Name) >= 0
		if (inL1 && inR1) || (inL2 && inR2) {
			return true
		}
	}
	return false
}

// bindable reports whether e can be fully bound against cols.
func bindable(e Expr, cols []colMeta) bool {
	_, err := bindExpr(e, cols)
	return err == nil
}

func (db *Database) buildRef(ctx *execCtx, tr TableRef) (*relation, error) {
	if err := ctx.cancelled(); err != nil {
		return nil, err
	}
	switch t := tr.(type) {
	case *BaseTable:
		tab := db.Table(t.Name)
		if tab == nil {
			return nil, fmt.Errorf("sqldb: unknown table %s", t.Name)
		}
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		cols := make([]colMeta, len(tab.Def.Columns))
		for i, c := range tab.Def.Columns {
			cols[i] = colMeta{table: alias, name: strings.ToLower(c.Name)}
		}
		ctx.accountScan(len(tab.Rows))
		node := ctx.addOp("scan", t.Name)
		node.SetRows(len(tab.Rows))
		return &relation{cols: cols, rows: tab.Rows}, nil
	case *SubqueryTable:
		// Derived tables repeat across the arms of OBDA unfoldings, so
		// each distinct subquery is materialized once per statement. The
		// entry is singleflighted: with parallel union arms, the first
		// arrival computes it and concurrent arrivals wait on the result.
		key := t.Query.String()
		ctx.cache.mu.Lock()
		e, ok := ctx.cache.subqueries[key]
		if !ok {
			e = &subqueryEntry{}
			ctx.cache.subqueries[key] = e
		}
		ctx.cache.mu.Unlock()
		computed := false
		e.once.Do(func() {
			computed = true
			node, restore := ctx.pushOp("subquery", t.Alias)
			e.rel, e.err = db.evalSelectChain(ctx, t.Query)
			restore()
			if e.err == nil {
				node.SetRows(len(e.rel.rows))
			}
		})
		if e.err != nil {
			return nil, e.err
		}
		inner := e.rel
		if !computed {
			if ctx.usage != nil {
				ctx.usage.AddCacheHits(1)
			}
			ctx.addOp("subquery", t.Alias+" (cached)").SetRows(len(inner.rows))
		}
		alias := strings.ToLower(t.Alias)
		cols := make([]colMeta, len(inner.cols))
		for i, c := range inner.cols {
			cols[i] = colMeta{table: alias, name: c.name}
		}
		// The wrapper shares the cached inner relation's rows, which no
		// operator mutates in place.
		return &relation{cols: cols, rows: inner.rows}, nil
	case *JoinRef:
		l, err := db.buildRef(ctx, t.L)
		if err != nil {
			return nil, err
		}
		r, err := db.buildRef(ctx, t.R)
		if err != nil {
			return nil, err
		}
		lrows, rrows := len(l.rows), len(r.rows)
		record := func(algo string, out *relation, err error) (*relation, error) {
			if err != nil {
				return nil, err
			}
			ctx.accountRows(out)
			note := ctx.takeParNote()
			if ctx.prof != nil {
				node := ctx.addOp(algo, strings.ToLower(t.Kind.String())+note)
				node.SetJoin(lrows, rrows, len(out.rows), joinBuildRows(algo, lrows, rrows), joinProbes(algo, lrows, rrows))
			}
			return out, nil
		}
		switch t.Kind {
		case JoinCross:
			out, err := nestedLoopJoin(ctx, l, r, nil)
			return record("nested loop", out, err)
		case JoinNatural:
			algo := "hash join"
			if db.Profile == ProfileSortMerge {
				algo = "merge join"
			}
			out, err := naturalJoin(ctx, l, r, db.Profile)
			return record(algo, out, err)
		case JoinLeft:
			out, err := leftJoin(ctx, l, r, t.On)
			return record("left join", out, err)
		default: // inner
			conj := Conjuncts(t.On)
			eq, residual := extractEquiKeys(conj, l, r)
			if len(eq) == 0 {
				out, err := nestedLoopJoin(ctx, l, r, t.On)
				return record("nested loop", out, err)
			}
			if db.Profile == ProfileSortMerge {
				out, err := mergeJoin(ctx, l, r, eq, AndAll(residual))
				return record("merge join", out, err)
			}
			out, err := hashJoin(ctx, l, r, eq, AndAll(residual))
			return record("hash join", out, err)
		}
	}
	return nil, fmt.Errorf("sqldb: unsupported table reference %T", tr)
}

// projectItems applies the SELECT list to the input relation. It returns
// the projected relation and, for non-star projections, the input rows
// aligned with the output rows (for ORDER BY over non-projected columns).
func projectItems(items []SelectItem, input *relation) (*relation, []Row, error) {
	// Pure star fast path.
	if len(items) == 1 && items[0].Star && items[0].Table == "" {
		return input, input.rows, nil
	}
	var outCols []colMeta
	type producer struct {
		star  bool
		slots []int // for star
		fn    evalFn
	}
	var prods []producer
	for _, it := range items {
		if it.Star {
			var slots []int
			q := strings.ToLower(it.Table)
			for i, c := range input.cols {
				if q == "" || c.table == q {
					outCols = append(outCols, c)
					slots = append(slots, i)
				}
			}
			if len(slots) == 0 {
				return nil, nil, fmt.Errorf("sqldb: %s.* matches no columns", it.Table)
			}
			prods = append(prods, producer{star: true, slots: slots})
			continue
		}
		fn, err := bindExpr(it.Expr, input.cols)
		if err != nil {
			return nil, nil, err
		}
		name := strings.ToLower(it.Alias)
		table := ""
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = strings.ToLower(cr.Name)
				table = strings.ToLower(cr.Table)
			} else {
				name = strings.ToLower(it.Expr.String())
			}
		}
		outCols = append(outCols, colMeta{table: table, name: name})
		prods = append(prods, producer{fn: fn})
	}
	out := &relation{cols: outCols, rows: make([]Row, 0, len(input.rows))}
	for _, row := range input.rows {
		nr := make(Row, 0, len(outCols))
		for _, p := range prods {
			if p.star {
				for _, s := range p.slots {
					nr = append(nr, row[s])
				}
				continue
			}
			v, err := p.fn(row)
			if err != nil {
				return nil, nil, err
			}
			nr = append(nr, v)
		}
		out.rows = append(out.rows, nr)
	}
	return out, input.rows, nil
}

// orderRelation sorts out by the ORDER BY items. Each key binds once: to
// the output columns when it resolves there, otherwise to the aligned
// input rows.
func orderRelation(order []OrderItem, out *relation, inCols []colMeta, inputAligned []Row) error {
	// Sorting happens in place, and out can alias a base table's rows
	// (star fast path): reordering those would corrupt the table for every
	// other query — and race with concurrent executions of a shared plan.
	// Sort a copy of the slice instead.
	out.rows = append(make([]Row, 0, len(out.rows)), out.rows...)
	keys := make([]evalFn, len(order))
	desc := make([]bool, len(order))
	fromInput := make([]bool, len(order))
	for i, o := range order {
		desc[i] = o.Desc
		if fn, err := bindExpr(o.Expr, out.cols); err == nil {
			keys[i] = fn
			continue
		}
		if inputAligned == nil {
			return fmt.Errorf("sqldb: cannot resolve ORDER BY expression %s", o.Expr)
		}
		if len(inputAligned) != len(out.rows) {
			return fmt.Errorf("sqldb: internal: ORDER BY alignment lost")
		}
		fn, err := bindExpr(o.Expr, inCols)
		if err != nil {
			return err
		}
		keys[i], fromInput[i] = fn, true
	}
	return sortRelation(out, keys, desc, fromInput, inputAligned)
}
