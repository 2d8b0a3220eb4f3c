package sqldb

import (
	"context"
	"fmt"
	"sort"
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
	// to completion (the classic batch behaviour).
	Ctx context.Context
	// BatchSize selects the executor: 0 runs the vectorized batch executor
	// at DefaultBatchSize, 1 runs the classic row-at-a-time executor, and
	// any larger value runs the batch executor at that batch size. Results
	// are row-for-row identical at every setting.
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
	res := &Result{Columns: make([]string, len(rel.cols)), Rows: rel.matRows()}
	for i, c := range rel.cols {
		res.Columns[i] = c.name
	}
	return res, nil
}

// newExecCtx builds the root context of one statement execution.
func newExecCtx(opt ExecOptions, prof *OpProfile) *execCtx {
	batch := opt.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	ctx := &execCtx{cache: newStmtCache(), prof: prof, usage: opt.Usage, ctx: opt.Ctx, batch: batch, stats: opt.Stats}
	if opt.Parallelism > 1 {
		pool := opt.Pool
		if pool == nil {
			pool = NewPool(opt.Parallelism)
		}
		stats := opt.Stats
		if stats == nil {
			stats = &ExecStats{}
		}
		ctx.stats = stats
		ctx.par = &parState{pool: pool, par: opt.Parallelism, stats: stats, ctx: opt.Ctx}
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
	// par is the statement's parallel-execution state; nil = sequential.
	par *parState
	// parNote is the pending workers/partitions annotation of the last
	// parallel operator (see setParNote/takeParNote in pool.go).
	parNote string
	// usage is the per-query resource tracker (shared, atomic; nil =
	// accounting off, one nil check per operator).
	usage *obs.Usage
	// ctx is the statement's cancellation signal (nil = non-cancellable);
	// operators poll it through cancelled() at their boundaries and every
	// morselRows rows inside long loops.
	ctx context.Context
	// scratch is a reusable byte buffer for profile details, so
	// enabled-tracing formatting on the buildFrom hot path costs one
	// string allocation instead of fmt boxing (goroutine-local: each
	// parallel union arm owns its child context).
	scratch []byte
	// batch is the resolved batch size: > 1 runs the vectorized executor,
	// <= 1 the row-at-a-time one (see ExecOptions.BatchSize).
	batch int
	// stats receives the batch counters even on sequential executions
	// (parallel ones share it with par.stats); nil = not collected.
	stats *ExecStats
	// lastBatches is the pending batches= annotation of the operator just
	// executed (goroutine-local, same discipline as parNote).
	lastBatches int
	// vecs is the reusable batch-executor scratch pool (selection indices,
	// keep flags, key hashes; see vecScratch in batch.go). Goroutine-local
	// like parNote: each parallel union arm owns its child context, and
	// parallel batch tasks allocate task-locally instead of borrowing.
	vecs *vecScratch
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

// cancelled returns the statement context's error once it is done.
// Nil-safe on a nil receiver and a nil context — the batch paths never
// pay more than two nil checks.
func (ctx *execCtx) cancelled() error {
	if ctx == nil || ctx.ctx == nil {
		return nil
	}
	return ctx.ctx.Err()
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
	batches := ctx.takeBatches()
	if ctx.prof == nil {
		return
	}
	b := append(ctx.scratch[:0], "pushdown "...)
	b = append(b, pred.String()...)
	b = append(b, note...)
	node := ctx.addOp("filter", string(b))
	node.SetInOut(before, after)
	node.SetBatches(batches)
	ctx.scratch = b[:0]
}

// noteJoin records one join-planning step (algorithm, equi-key count,
// input/output cardinalities) into the profile, replacing a variadic
// Sprintf on the buildFrom join loop.
func (ctx *execCtx) noteJoin(algo string, eqKeys, lrows, rrows, out int) {
	note := ctx.takeParNote()
	batches := ctx.takeBatches()
	if ctx.prof == nil {
		return
	}
	b := strconv.AppendInt(ctx.scratch[:0], int64(eqKeys), 10)
	b = append(b, " equi keys"...)
	b = append(b, note...)
	node := ctx.addOp(algo, string(b))
	node.SetJoin(lrows, rrows, out, joinBuildRows(algo, lrows, rrows), joinProbes(algo, lrows, rrows))
	node.SetBatches(batches)
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
	var head *relation
	var err error
	workers := 1
	if ctx.par != nil && len(arms) > 1 {
		head, workers, err = db.evalUnionArmsParallel(ctx, arms)
	} else {
		head, err = db.evalUnionArmsSequential(ctx, arms)
	}
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
		node.SetRows(head.numRows())
	}
	if !s.UnionAll {
		before := head.numRows()
		head, err = distinctRelation(ctx, head)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(head)
		batches := ctx.takeBatches()
		dnode := ctx.addOp("distinct", "")
		dnode.SetInOut(before, head.numRows())
		dnode.SetBatches(batches)
	}
	return head, nil
}

func (db *Database) evalUnionArmsSequential(ctx *execCtx, arms []*SelectStmt) (*relation, error) {
	head, err := db.evalSelect(ctx, arms[0])
	if err != nil {
		return nil, err
	}
	// The head's row slice can alias a base table (star fast path), so
	// appending the other arms into it would write through to — or race
	// on — the shared table storage. Concatenate into a fresh slice.
	head.rows = append(make([]Row, 0, head.numRows()), head.matRows()...)
	head.vec = nil
	head.mat = false
	for _, u := range arms[1:] {
		arm, err := db.evalSelect(ctx, u)
		if err != nil {
			return nil, err
		}
		if len(arm.cols) != len(head.cols) {
			return nil, fmt.Errorf("sqldb: UNION arms have %d vs %d columns", len(head.cols), len(arm.cols))
		}
		head.rows = append(head.rows, arm.matRows()...)
	}
	return head, nil
}

// evalUnionArmsParallel evaluates every arm of a union chain concurrently —
// the dominant cost of unfolded OBDA queries, whose UCQs have dozens of
// arms. Arm outputs are concatenated in arm order, so the merged relation
// is bit-identical to the sequential one. Each arm runs under a child
// context that shares the statement cache and parallel state but owns its
// own (pre-created, deterministically ordered) profile node.
func (db *Database) evalUnionArmsParallel(ctx *execCtx, arms []*SelectStmt) (*relation, int, error) {
	rels := make([]*relation, len(arms))
	nodes := make([]*OpProfile, len(arms))
	ctxs := make([]*execCtx, len(arms))
	for i := range arms {
		if ctx.prof != nil {
			nodes[i] = ctx.addOp("arm", fmt.Sprintf("#%d", i+1))
		}
		ctxs[i] = &execCtx{cache: ctx.cache, par: ctx.par, prof: nodes[i], usage: ctx.usage, ctx: ctx.ctx, batch: ctx.batch, stats: ctx.stats}
	}
	ctx.par.stats.UnionArms.Add(int64(len(arms)))
	workers, err := ctx.par.run(len(arms), func(i int) error {
		start := obs.Now()
		rel, armErr := db.evalSelect(ctxs[i], arms[i])
		nodes[i].SetTime(obs.Since(start))
		if armErr != nil {
			return armErr
		}
		nodes[i].SetRows(rel.numRows())
		// Materialize inside the arm's task: the relation is still owned
		// by this goroutine, and the transpose work parallelizes with it.
		rel.matRows()
		rels[i] = rel
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	head := rels[0]
	total := 0
	for _, r := range rels {
		total += len(r.rows)
	}
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
	node.SetRows(out.numRows())
	return out, nil
}

func (db *Database) evalSelectBody(ctx *execCtx, s *SelectStmt) (*relation, error) {
	input, remaining, err := db.buildFrom(ctx, s.From, splitConjuncts(s.Where))
	if err != nil {
		return nil, err
	}
	if rest := andAll(remaining); rest != nil {
		before := input.numRows()
		input, err = filterRelation(ctx, input, rest)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(input)
		note := ctx.takeParNote()
		batches := ctx.takeBatches()
		if ctx.prof != nil {
			node := ctx.addOp("filter", rest.String()+note)
			node.SetInOut(before, input.numRows())
			node.SetBatches(batches)
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
		vectorized := false
		if ctx.batchOn() && input.vec != nil {
			out, vectorized, err = batchAggregate(ctx, s, input)
			if err != nil {
				return nil, err
			}
		}
		if !vectorized {
			input.matRows()
			out, err = db.evalAggregate(s, input)
			if err != nil {
				return nil, err
			}
		}
		ctx.accountRows(out)
		batches := ctx.takeBatches()
		node := ctx.addOpf("aggregate", "%d groups", len(out.rows))
		node.SetInOut(input.numRows(), len(out.rows))
		node.SetBatches(batches)
	} else {
		// The vectorized projection only applies to pure column selections
		// on vector-only inputs, and only when every ORDER BY key binds to
		// the projected columns (the vec path has no aligned input rows for
		// keys over non-projected columns).
		var vecOut *relation
		if ctx.batchOn() && input.vec != nil && input.rows == nil {
			if v, ok := vecProject(s.Items, input); ok && orderKeysBindable(s.OrderBy, v.cols) {
				vecOut = v
			}
		}
		if vecOut != nil {
			out = vecOut
			ctx.accountBatch(out.numRows(), len(out.cols))
		} else {
			input.matRows()
			out, inputAligned, err = projectItems(s.Items, input)
			if err != nil {
				return nil, err
			}
			ctx.accountRows(out)
		}
		ctx.addOpf("project", "%d columns", len(out.cols)).SetRows(out.numRows())
	}

	if s.Distinct {
		before := out.numRows()
		out, err = distinctRelation(ctx, out)
		if err != nil {
			return nil, err
		}
		inputAligned = nil
		ctx.accountRows(out)
		batches := ctx.takeBatches()
		node := ctx.addOp("distinct", "")
		node.SetInOut(before, out.numRows())
		node.SetBatches(batches)
	}

	if len(s.OrderBy) > 0 {
		out.matRows()
		if err := orderRelation(s.OrderBy, out, input.cols, inputAligned); err != nil {
			return nil, err
		}
		out.vec = nil
		out.mat = false
		ctx.addOpf("sort", "%d keys", len(s.OrderBy)).SetRows(len(out.rows))
	}

	if s.Offset > 0 || (s.Limit >= 0 && s.Limit < out.numRows()) {
		before := out.numRows()
		out.matRows()
		out.vec = nil
		out.mat = false
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

// orderKeysBindable reports whether every ORDER BY key resolves against the
// given (projected) columns.
func orderKeysBindable(order []OrderItem, cols []colMeta) bool {
	for _, o := range order {
		if !bindable(o.Expr, cols) {
			return false
		}
	}
	return true
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
				before := r.numRows()
				fr, err := filterRelation(ctx, r, c)
				if err != nil {
					return nil, nil, err
				}
				ctx.accountRows(fr)
				ctx.notePushdown(c, before, fr.numRows())
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
		lrows, rrows := cur.numRows(), next.numRows()
		var algo string
		var err error
		switch {
		case len(eq) > 0 && db.Profile == ProfileSortMerge:
			algo = "merge join"
			cur, err = mergeJoin(ctx, cur, next, eq, andAll(residual))
		case len(eq) > 0:
			algo = "hash join"
			cur, err = hashJoin(ctx, cur, next, eq, andAll(residual))
		default:
			algo = "nested loop"
			cur, err = nestedLoopJoin(ctx, cur, next, andAll(residual))
		}
		if err != nil {
			return nil, nil, err
		}
		ctx.accountRows(cur)
		ctx.noteJoin(algo, len(eq), lrows, rrows, cur.numRows())
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
		if rels[i].numRows() < rels[best].numRows() {
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
				(connected == candConnected && rels[i].numRows() < rels[cand].numRows()) {
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
		rel := &relation{cols: cols, rows: tab.Rows}
		if ctx.batchOn() {
			// The scan is zero-copy in both executors (the relation aliases
			// the table's rows and segment), so it accounts whole — only
			// operators that process batches account per batch.
			rel.vec = tab.Segment()
			node.SetBatches(numBatches(rel.vec.n, ctx.batchSize()))
		}
		return rel, nil
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
				node.SetRows(e.rel.numRows())
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
			ctx.addOp("subquery", t.Alias+" (cached)").SetRows(inner.numRows())
		}
		alias := strings.ToLower(t.Alias)
		cols := make([]colMeta, len(inner.cols))
		for i, c := range inner.cols {
			cols[i] = colMeta{table: alias, name: c.name}
		}
		// The wrapper shares both backings of the cached inner relation;
		// each wrapper is owned by one goroutine, so a later matRows on it
		// materializes locally without racing other arms on the cache entry.
		return &relation{cols: cols, rows: inner.rows, vec: inner.vec}, nil
	case *JoinRef:
		l, err := db.buildRef(ctx, t.L)
		if err != nil {
			return nil, err
		}
		r, err := db.buildRef(ctx, t.R)
		if err != nil {
			return nil, err
		}
		lrows, rrows := l.numRows(), r.numRows()
		record := func(algo string, out *relation, err error) (*relation, error) {
			if err != nil {
				return nil, err
			}
			ctx.accountRows(out)
			note := ctx.takeParNote()
			batches := ctx.takeBatches()
			if ctx.prof != nil {
				node := ctx.addOp(algo, strings.ToLower(t.Kind.String())+note)
				node.SetJoin(lrows, rrows, out.numRows(), joinBuildRows(algo, lrows, rrows), joinProbes(algo, lrows, rrows))
				node.SetBatches(batches)
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
			conj := splitConjuncts(t.On)
			eq, residual := extractEquiKeys(conj, l, r)
			if len(eq) == 0 {
				out, err := nestedLoopJoin(ctx, l, r, t.On)
				return record("nested loop", out, err)
			}
			if db.Profile == ProfileSortMerge {
				out, err := mergeJoin(ctx, l, r, eq, andAll(residual))
				return record("merge join", out, err)
			}
			out, err := hashJoin(ctx, l, r, eq, andAll(residual))
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

// orderRelation sorts out by the ORDER BY items; keys resolve against the
// output columns first, then against the aligned input rows.
func orderRelation(order []OrderItem, out *relation, inCols []colMeta, inputAligned []Row) error {
	// Sorting happens in place, and out can alias a base table's rows
	// (star fast path): reordering those would corrupt the table for every
	// other query — and race with concurrent executions of a shared plan.
	// Sort a copy of the slice instead.
	out.rows = append(make([]Row, 0, len(out.rows)), out.rows...)
	keys := make([]evalFn, len(order))
	desc := make([]bool, len(order))
	useInput := false
	for i, o := range order {
		desc[i] = o.Desc
		if fn, err := bindExpr(o.Expr, out.cols); err == nil {
			keys[i] = fn
			continue
		}
		if inputAligned == nil {
			return fmt.Errorf("sqldb: cannot resolve ORDER BY expression %s", o.Expr)
		}
		fn, err := bindExpr(o.Expr, inCols)
		if err != nil {
			return err
		}
		useInput = true
		slot := i
		inner := fn
		_ = slot
		keys[i] = inner // marked: evaluated against input row
	}
	if !useInput {
		return sortRelation(out, keys, desc)
	}
	// Sort output and aligned input rows together using per-item source.
	type pair struct {
		out, in Row
		keys    []Value
	}
	if len(inputAligned) != len(out.rows) {
		return fmt.Errorf("sqldb: internal: ORDER BY alignment lost")
	}
	ps := make([]pair, len(out.rows))
	for i := range out.rows {
		kv := make([]Value, len(order))
		for j, o := range order {
			var src Row
			if fn, err := bindExpr(o.Expr, out.cols); err == nil {
				src = out.rows[i]
				v, err := fn(src)
				if err != nil {
					return err
				}
				kv[j] = v
				continue
			}
			fn, err := bindExpr(o.Expr, inCols)
			if err != nil {
				return err
			}
			v, err := fn(inputAligned[i])
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ps[i] = pair{out.rows[i], inputAligned[i], kv}
	}
	sort.SliceStable(ps, func(a, b int) bool {
		for j := range desc {
			c, err := Compare(ps[a].keys[j], ps[b].keys[j])
			if err != nil || c == 0 {
				continue
			}
			if desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range ps {
		out.rows[i] = ps[i].out
	}
	return nil
}
