package sqldb

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"npdbench/internal/obs"
)

// Result is the output of a query: named columns and rows.
type Result struct {
	Columns []string
	Rows    []Row
}

// Query parses, prepares and executes a SELECT statement.
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

// ExecSelectOpts prepares a parsed SELECT statement and executes it once
// under the given execution options (intra-query parallelism).
func (db *Database) ExecSelectOpts(s *SelectStmt, opt ExecOptions) (*Result, error) {
	p, err := Prepare(db, s)
	if err != nil {
		return nil, err
	}
	return p.Execute(opt)
}

// Execute runs the prepared statement against the current table rows.
func (p *Prepared) Execute(opt ExecOptions) (*Result, error) {
	return p.run(newExecCtx(opt, nil, p))
}

// ExecuteProfiled is Execute while collecting the operator-level
// execution profile (EXPLAIN ANALYZE): per operator, rows in/out, join
// algorithm, hash-build size and probe count; with parallelism enabled
// also per-arm wall times and workers=/morsels=/partitions= annotations.
func (p *Prepared) ExecuteProfiled(opt ExecOptions) (*Result, *OpProfile, error) {
	root := newOp("query", "")
	res, err := p.run(newExecCtx(opt, root, p))
	if err != nil {
		return nil, nil, err
	}
	root.SetRows(len(res.Rows))
	return res, root, nil
}

func (p *Prepared) run(ctx *execCtx) (*Result, error) {
	rel, err := evalChain(ctx, p.chain)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: make([]string, len(p.chain.cols)), Rows: rel.rows}
	for i, c := range p.chain.cols {
		res.Columns[i] = c.name
	}
	return res, nil
}

// newExecCtx builds the root context of one execution of p.
func newExecCtx(opt ExecOptions, prof *OpProfile, p *Prepared) *execCtx {
	ctx := &execCtx{cache: &stmtCache{subqueries: make([]subqueryEntry, p.nsubs)}, profile: p.profile, prof: prof, usage: opt.Usage,
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
	// profile is the prepared statement's planner profile.
	profile Profile
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
// mapping views) are materialized once, in the slot Prepare numbered them
// with, and sorted row orders are computed once per (relation, column) so
// the sort-merge profile sorts each shared mapping view once per statement,
// not once per union arm (what a real server's indexes amortize). Entries
// are singleflighted: when parallel union arms race to the same subquery or
// sort order, one computes and the rest wait.
type stmtCache struct {
	subqueries []subqueryEntry
	mu         sync.Mutex
	sortOrders map[sortKey]*sortOrderEntry // guarded by mu; made on first use
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
		if ctx.cache.sortOrders == nil {
			ctx.cache.sortOrders = make(map[sortKey]*sortOrderEntry)
		}
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
// accounting; an estimate is enough for the usage block.
const approxValueBytes = 48

// accountScan records base-table rows read into the usage tracker.
func (ctx *execCtx) accountScan(rows int) {
	if ctx.usage != nil {
		ctx.usage.AddRowsScanned(int64(rows))
	}
}

// accountRows records one operator's output relation: rows produced plus,
// when the operator built them, their estimated materialized bytes. An
// operator that passes on rows it was given (a filter, a union's
// concatenation, DISTINCT) charges none. One batched add per operator.
func (ctx *execCtx) accountRows(rel *relation, built bool) {
	if ctx.usage != nil && rel != nil && len(rel.rows) > 0 {
		n := int64(len(rel.rows))
		var bytes int64
		if built {
			bytes = n * int64(len(rel.rows[0])) * approxValueBytes
		}
		ctx.usage.AddRowsProduced(n, bytes)
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

func evalChain(ctx *execCtx, c *prepChain) (*relation, error) {
	if len(c.arms) == 1 {
		return evalSelect(ctx, c.arms[0])
	}
	node, restore := ctx.pushOp(c.op, "")
	head, workers, err := evalUnionArms(ctx, c)
	restore()
	if err != nil {
		return nil, err
	}
	ctx.accountRows(head, false)
	if node != nil {
		detail := fmt.Sprintf("%d arms", len(c.arms))
		if workers > 1 {
			detail += fmt.Sprintf(" [workers=%d]", workers)
		}
		node.SetDetail(detail)
		node.SetRows(len(head.rows))
	}
	if c.distinct {
		before := len(head.rows)
		head = distinctRows(head)
		ctx.accountRows(head, false)
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
func evalUnionArms(ctx *execCtx, c *prepChain) (*relation, int, error) {
	arms := c.arms
	fan := ctx.par.fanOut(len(arms), minParallelRows)
	var nodes []*OpProfile
	if ctx.prof != nil {
		nodes = make([]*OpProfile, len(arms))
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
			c = &execCtx{cache: ctx.cache, profile: ctx.profile, par: ctx.par, usage: ctx.usage}
			wctx[w] = c
		}
		var node *OpProfile
		var start time.Time
		if nodes != nil {
			node = nodes[i]
			start = obs.Now()
		}
		c.prof = node
		rel, err := evalSelect(c, arms[i])
		if node != nil {
			node.SetTime(obs.Since(start))
		}
		if err != nil {
			return err
		}
		node.SetRows(len(rel.rows))
		rels[i] = rel
		return nil
	})
	ctx.prof = union
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, r := range rels {
		total += len(r.rows)
	}
	// A fresh slice: an arm's rows can alias a base table (star fast
	// path), so appending into one would write through to shared storage.
	rows := make([]Row, 0, total)
	for _, r := range rels {
		rows = append(rows, r.rows...)
	}
	return &relation{rows: rows}, workers, nil
}

// evalSelect executes a single SELECT block (no union chaining).
func evalSelect(ctx *execCtx, ps *prepSelect) (*relation, error) {
	if err := ctx.cancelled(); err != nil {
		return nil, err
	}
	node, restore := ctx.pushOp("select", "")
	out, err := evalSelectBody(ctx, ps)
	restore()
	if err != nil {
		return nil, err
	}
	node.SetRows(len(out.rows))
	return out, nil
}

func evalSelectBody(ctx *execCtx, ps *prepSelect) (*relation, error) {
	input, p, err := buildFrom(ctx, ps)
	if err != nil {
		return nil, err
	}
	if p.rest != nil {
		before := len(input.rows)
		input, err = filterRelation(ctx, input, p.rest)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(input, false)
		note := ctx.takeParNote()
		if ctx.prof != nil {
			ctx.addOp("filter", p.restExpr.String()+note).SetInOut(before, len(input.rows))
		}
	}

	var out *relation
	var inputAligned []Row // input rows aligned to output rows (for ORDER BY)
	if p.agg != nil {
		out, err = p.agg.eval(input)
		if err != nil {
			return nil, err
		}
		ctx.accountRows(out, true)
		if ctx.prof != nil {
			ctx.addOpf("aggregate", "%d groups", len(out.rows)).SetInOut(len(input.rows), len(out.rows))
		}
	} else {
		out, inputAligned, err = p.proj.apply(input, len(p.out))
		if err != nil {
			return nil, err
		}
		ctx.accountRows(out, !p.proj.passThrough)
		if ctx.prof != nil {
			ctx.addOpf("project", "%d columns", len(p.out)).SetRows(len(out.rows))
		}
	}

	if ps.distinct {
		before := len(out.rows)
		out = distinctRows(out)
		inputAligned = nil
		ctx.accountRows(out, false)
		ctx.addOp("distinct", "").SetInOut(before, len(out.rows))
	}

	if p.sort != nil {
		if err := orderRelation(p.sort, out, inputAligned); err != nil {
			return nil, err
		}
		if ctx.prof != nil {
			ctx.addOpf("sort", "%d keys", len(p.sort.keys)).SetRows(len(out.rows))
		}
	}

	if ps.offset > 0 || (ps.limit >= 0 && ps.limit < len(out.rows)) {
		before := len(out.rows)
		if ps.offset > 0 {
			if ps.offset >= len(out.rows) {
				out.rows = nil
			} else {
				out.rows = out.rows[ps.offset:]
			}
		}
		if ps.limit >= 0 && ps.limit < len(out.rows) {
			out.rows = out.rows[:ps.limit]
		}
		ctx.addOp("limit", "").SetInOut(before, len(out.rows))
	}
	return out, nil
}

// buildFrom materializes the FROM clause: it reads every item, applies
// the pushed-down conjuncts, and joins the items in the plan's order. It
// returns the joined relation and the plan bound for that order.
func buildFrom(ctx *execCtx, ps *prepSelect) (*relation, *selectPlan, error) {
	if len(ps.from) == 0 {
		// SELECT without FROM: a single empty row.
		return &relation{rows: []Row{{}}}, ps.written, nil
	}
	rels := make([]*relation, len(ps.from))
	for i, ref := range ps.from {
		r, err := buildRef(ctx, ref)
		if err != nil {
			return nil, nil, err
		}
		rels[i] = r
	}
	for _, c := range ps.pushed {
		before := len(rels[c.item].rows)
		fr, err := filterRelation(ctx, rels[c.item], c.fn)
		if err != nil {
			return nil, nil, err
		}
		ctx.accountRows(fr, false)
		ctx.notePushdown(c.expr, before, len(fr.rows))
		rels[c.item] = fr
	}
	p := ps.written
	if ps.sm != nil {
		// Greedy: start from the smallest relation; each step joins in the
		// smallest relation connected by an equi predicate (else smallest).
		var err error
		if p, err = ps.planFor(greedyOrder(rels, ps.sm.links)); err != nil {
			return nil, nil, err
		}
	}
	cur := rels[p.item(0)]
	for step := range p.steps {
		st := &p.steps[step]
		if err := ctx.cancelled(); err != nil {
			return nil, nil, err
		}
		next := rels[p.item(step+1)]
		lrows, rrows := len(cur.rows), len(next.rows)
		var algo string
		var err error
		switch {
		case len(st.keys) > 0 && ctx.profile == ProfileSortMerge:
			algo = "merge join"
			cur, err = mergeJoin(ctx, cur, next, st)
		case len(st.keys) > 0:
			algo = "hash join"
			cur, err = hashJoin(ctx, cur, next, st)
		default:
			algo = "nested loop"
			cur, err = nestedLoopJoin(ctx, cur, next, st)
		}
		if err != nil {
			return nil, nil, err
		}
		ctx.accountRows(cur, true)
		ctx.noteJoin(algo, len(st.keys), lrows, rrows, len(cur.rows))
	}
	return cur, p, nil
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
func greedyOrder(rels []*relation, links []equiLink) []int {
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
	for len(order) < n {
		cand := -1
		candConnected := false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := linked(links, used, i)
			if cand == -1 ||
				(connected && !candConnected) ||
				(connected == candConnected && len(rels[i].rows) < len(rels[cand].rows)) {
				cand = i
				candConnected = connected
			}
		}
		order = append(order, cand)
		used[cand] = true
	}
	return order
}

// linked reports whether some column equality joins FROM item i to the
// items already used.
func linked(links []equiLink, used []bool, i int) bool {
	for _, k := range links {
		if (k.r[i] && anyUsed(k.l, used)) || (k.l[i] && anyUsed(k.r, used)) {
			return true
		}
	}
	return false
}

func anyUsed(in, used []bool) bool {
	for j, ok := range in {
		if ok && used[j] {
			return true
		}
	}
	return false
}

func buildRef(ctx *execCtx, ref *prepRef) (*relation, error) {
	if err := ctx.cancelled(); err != nil {
		return nil, err
	}
	switch {
	case ref.table != nil:
		rows := ref.table.Rows
		ctx.accountScan(len(rows))
		ctx.addOp("scan", ref.name).SetRows(len(rows))
		return &relation{rows: rows}, nil
	case ref.sub != nil:
		// Derived tables repeat across the arms of OBDA unfoldings, so
		// each distinct subquery is materialized once per statement. The
		// entry is singleflighted: with parallel union arms, the first
		// arrival computes it and concurrent arrivals wait on the result.
		e := &ctx.cache.subqueries[ref.id]
		computed := false
		e.once.Do(func() {
			computed = true
			node, restore := ctx.pushOp("subquery", ref.name)
			e.rel, e.err = evalChain(ctx, ref.sub)
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
			if ctx.prof != nil {
				ctx.addOp("subquery", ref.name+" (cached)").SetRows(len(inner.rows))
			}
		}
		// The wrapper shares the cached inner relation's rows, which no
		// operator mutates in place.
		return &relation{rows: inner.rows}, nil
	}
	j := ref.join
	l, err := buildRef(ctx, j.l)
	if err != nil {
		return nil, err
	}
	r, err := buildRef(ctx, j.r)
	if err != nil {
		return nil, err
	}
	var out *relation
	algo := "nested loop"
	switch {
	case j.kind == JoinLeft:
		algo = "left join"
		out, err = leftJoin(ctx, l, r, &j.joinOn)
	case len(j.keys) == 0:
		out, err = nestedLoopJoin(ctx, l, r, &j.joinOn)
	case ctx.profile == ProfileSortMerge:
		algo = "merge join"
		out, err = mergeJoin(ctx, l, r, &j.joinOn)
	default:
		algo = "hash join"
		out, err = hashJoin(ctx, l, r, &j.joinOn)
	}
	if err != nil {
		return nil, err
	}
	if j.kind == JoinNatural {
		// A natural join is profiled under the profile's equi-join
		// algorithm even when no column is shared.
		algo = "hash join"
		if ctx.profile == ProfileSortMerge {
			algo = "merge join"
		}
	}
	ctx.accountRows(out, true)
	note := ctx.takeParNote()
	if ctx.prof != nil {
		lrows, rrows := len(l.rows), len(r.rows)
		node := ctx.addOp(algo, j.detail+note)
		node.SetJoin(lrows, rrows, len(out.rows), joinBuildRows(algo, lrows, rrows), joinProbes(algo, lrows, rrows))
	}
	return out, nil
}

// apply evaluates the SELECT list over the input relation, width columns
// per output row. It returns the projected relation and the input rows
// aligned with the output rows (for ORDER BY over non-projected columns).
func (pr *projection) apply(input *relation, width int) (*relation, []Row, error) {
	if pr.passThrough {
		return input, input.rows, nil
	}
	out := &relation{rows: make([]Row, 0, len(input.rows))}
	for _, row := range input.rows {
		nr := make(Row, 0, width)
		star := 0
		for _, fn := range pr.fns {
			if fn == nil {
				for _, s := range pr.stars[star] {
					nr = append(nr, row[s])
				}
				star++
				continue
			}
			v, err := fn(row)
			if err != nil {
				return nil, nil, err
			}
			nr = append(nr, v)
		}
		out.rows = append(out.rows, nr)
	}
	return out, input.rows, nil
}

// orderRelation sorts out by the bound ORDER BY keys.
func orderRelation(sp *sortPlan, out *relation, inputAligned []Row) error {
	for _, in := range sp.fromInput {
		if in && len(inputAligned) != len(out.rows) {
			return fmt.Errorf("sqldb: internal: ORDER BY alignment lost")
		}
	}
	// Sorting happens in place, and out can alias a base table's rows
	// (star fast path): reordering those would corrupt the table for every
	// other query — and race with concurrent executions of a shared plan.
	// Sort a copy of the slice instead.
	out.rows = append(make([]Row, 0, len(out.rows)), out.rows...)
	return sortRelation(out, sp.keys, sp.desc, sp.fromInput, inputAligned)
}
