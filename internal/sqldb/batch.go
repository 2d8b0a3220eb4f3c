package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// The vectorized batch executor. Operators with a columnar input process it
// in fixed-size batches: scan exposes the table segment, filter evaluates
// compiled vector predicates (or an arbitrary bound expression over one
// reusable scratch row), hash join vectorizes build-key hashing and probes
// batch-wise, DISTINCT and aggregate group by per-row class hashes verified
// with Value.keyEq. Every batch loop polls cancellation and accounts usage
// at batch boundaries, and every converted operator reports a batches=
// counter into EXPLAIN ANALYZE. Operators without a batch implementation
// (sort, merge join, outer/nested-loop joins, complex projections) receive
// rows materialized once at the fallback boundary — results are row-for-row
// identical to the row-at-a-time path at any batch size.

// DefaultBatchSize is the number of rows a batch operator processes per
// inner loop. Large enough to amortize per-batch bookkeeping, small enough
// that batch-local scratch stays cache-resident; BatchSize 1 in ExecOptions
// selects the row-at-a-time executor.
const DefaultBatchSize = 1024

// batchOn reports whether this execution runs the vectorized path.
func (ctx *execCtx) batchOn() bool { return ctx != nil && ctx.batch > 1 }

// batchSize returns the resolved batch size of this execution.
func (ctx *execCtx) batchSize() int {
	if ctx == nil || ctx.batch < 1 {
		return DefaultBatchSize
	}
	return ctx.batch
}

// pollMask returns the cancellation poll interval of row-granular loops as
// a power-of-two mask: polls happen on batch boundaries, so shrinking the
// batch size tightens the cancellation latency with it. The row-at-a-time
// executor keeps the classic morsel-sized poll.
func (ctx *execCtx) pollMask() int {
	if ctx == nil || ctx.batch <= 1 {
		return morselRows - 1
	}
	m := 1
	for m < ctx.batch {
		m <<= 1
	}
	return m - 1
}

// countBatches folds processed batches into the execution stats.
func (ctx *execCtx) countBatches(n int) {
	if ctx != nil && ctx.par.stats != nil {
		ctx.par.stats.Batches.Add(int64(n))
	}
}

// setBatches stashes the batches= annotation of the operator just executed;
// the call site owning the profile node collects it with takeBatches.
func (ctx *execCtx) setBatches(n int) {
	if ctx != nil {
		ctx.lastBatches = n
	}
}

// takeBatches returns and clears the pending batches= annotation.
func (ctx *execCtx) takeBatches() int {
	if ctx == nil {
		return 0
	}
	n := ctx.lastBatches
	ctx.lastBatches = 0
	return n
}

// accountBatch records one emitted batch into the usage tracker: usage is
// accounted per batch, so a canceled query's counters reflect exactly the
// batches that completed.
func (ctx *execCtx) accountBatch(rows, cols int) {
	if ctx != nil && ctx.usage != nil && rows > 0 {
		ctx.usage.AddRowsProduced(int64(rows), int64(rows)*int64(cols)*approxValueBytes)
	}
}

func numBatches(n, bs int) int {
	if n == 0 {
		return 0
	}
	return (n + bs - 1) / bs
}

// ---- scratch pool --------------------------------------------------------

// vecScratch is one batch worker's reusable state: selection flags, the
// per-batch key hashes, the scratch row, and the filter predicate compiled
// for this worker. An OBDA unfolding executes thousands of small union arms
// per statement, so the fixed per-operator cost of these buffers dominates
// allocation counts unless they are recycled. Every operator's worker 0
// borrows the context's scratch for the duration of the operator and
// returns it, which amortizes the cost to zero after the first operator;
// helper workers of a fanned-out operator get fresh scratch, one per
// worker — scratch is goroutine-local, never shared.
type vecScratch struct {
	keep []bool   // per-batch predicate results
	hash []uint64 // full-input key hashes (join build side)
	bh   []uint64 // per-batch key hashes
	row  Row      // generic filter predicate / join residual input
	// pred is the filter predicate compiled for this worker; when the
	// shape does not compile, predFn evaluates over row instead.
	pred   vecPred
	predFn evalFn
	// The fields below serve the operator that borrowed this scratch as
	// its worker 0: team[w] is worker w's scratch (team[0] is this one),
	// sel and selR collect the survivor indices or join match pairs.
	team      []*vecScratch
	sel, selR runOut[int32]
	tables    []map[uint64][]int32 // join hash tables, one per partition
	rows      runOut[Row]          // row executor's kept or joined rows
}

// borrowVecScratch hands out the context's scratch pool, emptying the slot
// so an unexpected nested borrow allocates fresh buffers instead of
// corrupting the outer operator's state.
func (ctx *execCtx) borrowVecScratch() *vecScratch {
	if ctx != nil && ctx.vecs != nil {
		s := ctx.vecs
		ctx.vecs = nil
		return s
	}
	return &vecScratch{}
}

// returnVecScratch gives the (possibly grown) buffers back to the context
// for the next operator, dropping what belonged to the operator alone: its
// helpers' scratch and its compiled predicate.
func (ctx *execCtx) returnVecScratch(s *vecScratch) {
	clear(s.team)
	clear(s.tables)
	s.team = s.team[:0]
	s.pred, s.predFn = nil, nil
	if ctx != nil {
		ctx.vecs = s
	}
}

// workers returns the operator's per-worker scratch table for a run with
// the given number of slots: slot 0 is s itself, and helper slots start
// empty for the helpers to fill on first use.
func (s *vecScratch) workers(slots int) []*vecScratch {
	s.team = append(s.team[:0], s)
	for len(s.team) < slots {
		s.team = append(s.team, nil)
	}
	return s.team
}

// rowOf returns the scratch row resized to n cells.
func (s *vecScratch) rowOf(n int) Row {
	if cap(s.row) < n {
		s.row = make(Row, n)
	}
	s.row = s.row[:n]
	return s.row
}

// batchHashes fills the scratch per-batch hash buffer with composite key
// hashes of rows [lo,hi) over the given column slots.
func (s *vecScratch) batchHashes(vd *vecData, slots []int, lo, hi int) []uint64 {
	s.bh = vd.hashKeyRange(s.bh, slots, lo, hi)
	return s.bh
}

// ---- vectorized predicates ----------------------------------------------

// vecPred fills dst[j] with whether row lo+j survives the filter (predicate
// evaluates to TRUE; FALSE and NULL both drop the row). Compiled predicates
// capture scratch, so each worker compiles its own.
type vecPred func(dst []bool, lo, hi int)

// cmpKeep applies a comparison operator to a Compare result.
func cmpKeep(op BinOpKind, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// flipCmp mirrors a comparison so "lit op col" compiles as "col op' lit".
func flipCmp(op BinOpKind) BinOpKind {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // Eq, Ne are symmetric
}

func isCmpOp(op BinOpKind) bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

func isNumericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindDate
}

// compileVecPred compiles a filter predicate into a type-specialized vector
// evaluator, or returns nil when the shape is not convertible (the caller
// then evaluates the bound expression over a scratch row — still batched).
// NOT is never compiled: the kept-row semantics used here (TRUE keeps,
// FALSE/NULL drop) compose soundly under AND and OR but not under negation.
func compileVecPred(e Expr, vd *vecData, cols []colMeta) vecPred {
	switch x := e.(type) {
	case *BinOp:
		switch {
		case x.Op == OpAnd, x.Op == OpOr:
			l := compileVecPred(x.L, vd, cols)
			if l == nil {
				return nil
			}
			r := compileVecPred(x.R, vd, cols)
			if r == nil {
				return nil
			}
			tmp := make([]bool, 0, DefaultBatchSize)
			and := x.Op == OpAnd
			return func(dst []bool, lo, hi int) {
				l(dst, lo, hi)
				tmp = tmp[:0]
				for range dst {
					tmp = append(tmp, false)
				}
				r(tmp, lo, hi)
				if and {
					for j := range dst {
						dst[j] = dst[j] && tmp[j]
					}
				} else {
					for j := range dst {
						dst[j] = dst[j] || tmp[j]
					}
				}
			}
		case isCmpOp(x.Op):
			if lc, ok := x.L.(*ColRef); ok {
				if lit, ok := x.R.(*Lit); ok {
					return compileColLitCmp(x.Op, lc, lit.Val, vd, cols)
				}
				if rc, ok := x.R.(*ColRef); ok {
					return compileColColCmp(x.Op, lc, rc, vd, cols)
				}
			}
			if lit, ok := x.L.(*Lit); ok {
				if rc, ok := x.R.(*ColRef); ok {
					return compileColLitCmp(flipCmp(x.Op), rc, lit.Val, vd, cols)
				}
			}
			return nil
		}
		return nil
	case *IsNullExpr:
		cr, ok := x.E.(*ColRef)
		if !ok {
			return nil
		}
		slot := findCol(cols, cr.Table, cr.Name)
		if slot < 0 {
			return nil
		}
		c := &vd.cols[slot]
		neg := x.Negate
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				dst[j] = c.nulls.get(lo+j) != neg
			}
		}
	case *LikeExpr:
		cr, ok := x.E.(*ColRef)
		if !ok {
			return nil
		}
		lit, ok := x.Pattern.(*Lit)
		if !ok || lit.Val.IsNull() {
			return nil
		}
		slot := findCol(cols, cr.Table, cr.Name)
		if slot < 0 || vd.cols[slot].kind != KindString {
			return nil
		}
		c := &vd.cols[slot]
		pat := lit.Val.String()
		neg := x.Negate
		// One LIKE evaluation per distinct dictionary value, not per row.
		match := make([]bool, c.dict.size())
		for i, s := range c.dict.vals {
			match[i] = likeMatch(s, pat) != neg
		}
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				i := lo + j
				dst[j] = !c.nulls.get(i) && match[c.codes[i]]
			}
		}
	case *InExpr:
		cr, ok := x.E.(*ColRef)
		if !ok {
			return nil
		}
		slot := findCol(cols, cr.Table, cr.Name)
		if slot < 0 {
			return nil
		}
		lits := make([]Value, 0, len(x.List))
		sawNull := false
		for _, it := range x.List {
			lit, ok := it.(*Lit)
			if !ok {
				return nil
			}
			if lit.Val.IsNull() {
				sawNull = true
				continue
			}
			lits = append(lits, lit.Val)
		}
		c := &vd.cols[slot]
		neg := x.Negate
		// matched -> !neg; unmatched with a NULL in the list -> NULL
		// (dropped); unmatched otherwise -> neg.
		unmatched := neg && !sawNull
		if c.kind == KindString {
			match := make([]bool, c.dict.size())
			for i, s := range c.dict.vals {
				hit := false
				for _, lv := range lits {
					if Equal(Value{Kind: KindString, S: s}, lv) {
						hit = true
						break
					}
				}
				if hit {
					match[i] = !neg
				} else {
					match[i] = unmatched
				}
			}
			return func(dst []bool, lo, hi int) {
				for j := range dst {
					i := lo + j
					dst[j] = !c.nulls.get(i) && match[c.codes[i]]
				}
			}
		}
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				i := lo + j
				if c.nulls.get(i) {
					dst[j] = false
					continue
				}
				v := c.value(i)
				hit := false
				for _, lv := range lits {
					if Equal(v, lv) {
						hit = true
						break
					}
				}
				if hit {
					dst[j] = !neg
				} else {
					dst[j] = unmatched
				}
			}
		}
	}
	return nil
}

// compileColLitCmp compiles "col op literal" with a type-specialized loop.
// Comparison semantics replicate applyBinOp exactly: NULL operands drop the
// row, incomparable kinds compare FALSE, and numeric comparisons go through
// float64 like Value.Compare.
func compileColLitCmp(op BinOpKind, cr *ColRef, lit Value, vd *vecData, cols []colMeta) vecPred {
	slot := findCol(cols, cr.Table, cr.Name)
	if slot < 0 {
		return nil
	}
	c := &vd.cols[slot]
	if lit.IsNull() {
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				dst[j] = false
			}
		}
	}
	if lf, ok := lit.AsFloat(); ok && isNumericKind(c.kind) {
		switch c.kind {
		case KindInt, KindDate:
			ints := c.ints
			return func(dst []bool, lo, hi int) {
				for j := range dst {
					i := lo + j
					if c.nulls.get(i) {
						dst[j] = false
						continue
					}
					dst[j] = cmpKeep(op, cmpFloat(float64(ints[i]), lf))
				}
			}
		case KindFloat:
			floats := c.floats
			return func(dst []bool, lo, hi int) {
				for j := range dst {
					i := lo + j
					if c.nulls.get(i) {
						dst[j] = false
						continue
					}
					dst[j] = cmpKeep(op, cmpFloat(floats[i], lf))
				}
			}
		}
	}
	if c.kind == KindString && lit.Kind == KindString {
		// One comparison per distinct dictionary value.
		match := make([]bool, c.dict.size())
		for i, s := range c.dict.vals {
			match[i] = cmpKeep(op, strings.Compare(s, lit.S))
		}
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				i := lo + j
				dst[j] = !c.nulls.get(i) && match[c.codes[i]]
			}
		}
	}
	// Remaining kind pairings (bool vs bool, geometry, mismatches): one
	// generic loop over materialized cells, identical to applyBinOp.
	return func(dst []bool, lo, hi int) {
		for j := range dst {
			i := lo + j
			if c.nulls.get(i) {
				dst[j] = false
				continue
			}
			cv, err := Compare(c.value(i), lit)
			dst[j] = err == nil && cmpKeep(op, cv)
		}
	}
}

// compileColColCmp compiles "colA op colB" over two vectors.
func compileColColCmp(op BinOpKind, lc, rc *ColRef, vd *vecData, cols []colMeta) vecPred {
	ls := findCol(cols, lc.Table, lc.Name)
	rs := findCol(cols, rc.Table, rc.Name)
	if ls < 0 || rs < 0 {
		return nil
	}
	a, b := &vd.cols[ls], &vd.cols[rs]
	if isNumericKind(a.kind) && isNumericKind(b.kind) {
		af := numAccessor(a)
		bf := numAccessor(b)
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				i := lo + j
				if a.nulls.get(i) || b.nulls.get(i) {
					dst[j] = false
					continue
				}
				dst[j] = cmpKeep(op, cmpFloat(af(i), bf(i)))
			}
		}
	}
	if a.kind == KindString && b.kind == KindString {
		sameDict := a.dict == b.dict && (op == OpEq || op == OpNe)
		return func(dst []bool, lo, hi int) {
			for j := range dst {
				i := lo + j
				if a.nulls.get(i) || b.nulls.get(i) {
					dst[j] = false
					continue
				}
				if sameDict {
					dst[j] = cmpKeep(op, boolToCmp(a.codes[i] == b.codes[i]))
					continue
				}
				dst[j] = cmpKeep(op, strings.Compare(a.dict.vals[a.codes[i]], b.dict.vals[b.codes[i]]))
			}
		}
	}
	return func(dst []bool, lo, hi int) {
		for j := range dst {
			i := lo + j
			if a.nulls.get(i) || b.nulls.get(i) {
				dst[j] = false
				continue
			}
			cv, err := Compare(a.value(i), b.value(i))
			dst[j] = err == nil && cmpKeep(op, cv)
		}
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// boolToCmp maps equality to a Compare-style result (only consumed by
// Eq/Ne, so any nonzero works for "not equal").
func boolToCmp(eq bool) int {
	if eq {
		return 0
	}
	return 1
}

func numAccessor(c *colvec) func(int) float64 {
	if c.kind == KindFloat {
		floats := c.floats
		return func(i int) float64 { return floats[i] }
	}
	ints := c.ints
	return func(i int) float64 { return float64(ints[i]) }
}

// ---- batch filter --------------------------------------------------------

// batchFilter evaluates pred over a columnar relation with one driver task
// per batch: a task appends the batch's survivor indices to its worker's
// selection, and the selections gather in batch order into exactly-sized
// fresh vectors — the same output at every worker count. Each worker
// compiles the predicate once, against its own scratch.
func batchFilter(ctx *execCtx, r *relation, pred Expr) (*relation, error) {
	vd := r.vec
	bs := ctx.batchSize()
	nb := numBatches(vd.n, bs)
	fan := ctx.par.fanOut(nb, vd.n)
	scr := ctx.borrowVecScratch()
	defer ctx.returnVecScratch(scr)
	team := scr.workers(ctx.par.slots(fan))
	if err := scr.compileFilter(pred, r); err != nil {
		return nil, err
	}
	sel := &scr.sel
	sel.reset(len(team), nb)
	workers, err := ctx.par.run(fan, nb, func(w, b int) error {
		s := team[w]
		if s == nil {
			s = &vecScratch{}
			if err := s.compileFilter(pred, r); err != nil {
				return err
			}
			team[w] = s
		}
		start := len(sel.bufs[w])
		out, err := s.filterBatch(vd, sel.bufs[w], b*bs, min(b*bs+bs, vd.n))
		if err != nil {
			return err
		}
		sel.bufs[w] = out
		sel.mark(w, b, start)
		ctx.accountBatch(len(out)-start, len(r.cols))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newVecBuilder(vd.cols)
	out.reserve(sel.len())
	for _, run := range sel.runs {
		out.gather(vd.cols, run)
	}
	ctx.countBatches(nb)
	ctx.setBatches(nb)
	if fan {
		ctx.par.stats.Morsels.Add(int64(nb))
		ctx.setParNote(fmt.Sprintf(" [batches=%d workers=%d]", nb, workers))
	}
	return &relation{cols: r.cols, vec: out.build()}, nil
}

// compileFilter compiles pred against r for this worker: a vector
// predicate when the shape converts, else the bound expression evaluated
// over the worker's scratch row.
func (s *vecScratch) compileFilter(pred Expr, r *relation) error {
	s.pred, s.predFn = compileVecPred(pred, r.vec, r.cols), nil
	if s.pred != nil {
		return nil
	}
	f, err := bindExpr(pred, r.cols)
	if err != nil {
		return err
	}
	s.predFn = f
	s.rowOf(len(r.vec.cols))
	return nil
}

// filterBatch appends the surviving row indices of [lo,hi) to sel.
func (s *vecScratch) filterBatch(vd *vecData, sel []int32, lo, hi int) ([]int32, error) {
	keep := s.keep[:0]
	for i := lo; i < hi; i++ {
		keep = append(keep, false)
	}
	s.keep = keep
	if s.pred != nil {
		s.pred(keep, lo, hi)
	} else {
		for i := lo; i < hi; i++ {
			vd.rowInto(s.row, i)
			v, err := s.predFn(s.row)
			if err != nil {
				return nil, err
			}
			keep[i-lo] = !v.IsNull() && v.Bool()
		}
	}
	for j, k := range keep {
		if k {
			sel = append(sel, int32(lo+j))
		}
	}
	return sel, nil
}

// ---- batch hash join -----------------------------------------------------

// batchHashJoin is the vectorized inner equi-join: build-side key hashes
// are computed with type-specialized column loops, the hash table maps
// 64-bit key hashes to build row indices (collisions verified with keyEq
// semantics, so int 1 and float 1.0 still join), and the probe side is
// probed batch by batch, collecting matched index pairs that gather into
// fresh output vectors. Probe order and within-key build order reproduce
// the row executor's output exactly.
//
// Three driver runs, each split over the pool when the join fans out:
// build-key hashing per batch; one hash table per partition, whose task
// scans the build side in row order keeping the rows with hash%P == p, so
// per-key lists keep build order without locking (a join that does not
// fan out builds its one table the same way); and the probe per batch,
// each task appending its match pairs to its worker's selections. The
// pairs gather in batch order, so the output is the same at every worker
// count.
func batchHashJoin(ctx *execCtx, l, r *relation, keys []equiKey, residual Expr) (*relation, error) {
	outCols := slices.Concat(l.cols, r.cols)
	var resFn evalFn
	if residual != nil {
		var err error
		resFn, err = bindExpr(residual, outCols)
		if err != nil {
			return nil, err
		}
	}
	build, probe := r, l
	buildRight := true
	if l.vec.n < r.vec.n {
		build, probe = l, r
		buildRight = false
	}
	buildSlots, probeSlots := keySlots(keys, buildRight)
	bvd, pvd := build.vec, probe.vec
	lvd, rvd := l.vec, r.vec
	bs := ctx.batchSize()
	nbB := numBatches(bvd.n, bs)
	nbP := numBatches(pvd.n, bs)
	parts := min(ctx.par.par, maxJoinPartitions)
	fan := ctx.par.fanOut(parts, bvd.n+pvd.n)
	if !fan {
		parts = 1
	}
	scr := ctx.borrowVecScratch()
	defer ctx.returnVecScratch(scr)
	team := scr.workers(ctx.par.slots(fan))

	// Phase 1: build-key hashing into the reusable full-input hash buffer;
	// tasks write disjoint ranges of it.
	if cap(scr.hash) < bvd.n {
		scr.hash = make([]uint64, bvd.n)
	}
	buildHash := scr.hash[:bvd.n]
	if _, err := ctx.par.run(ctx.par.fanOut(nbB, bvd.n+pvd.n), nbB, func(_, b int) error {
		lo := b * bs
		hi := min(lo+bs, bvd.n)
		seg := buildHash[lo:hi]
		for j := range seg {
			seg[j] = hashOffset64
		}
		for _, s := range buildSlots {
			bvd.cols[s].hashColRange(seg, lo, hi)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: per-partition hash tables from key hash to build row
	// indices, in build order.
	tables := slices.Grow(scr.tables[:0], parts)[:parts]
	scr.tables = tables
	poll := ctx.pollMask()
	if _, err := ctx.par.run(fan, parts, func(_, p int) error {
		ht := make(map[uint64][]int32, bvd.n/parts+1)
		for j, h := range buildHash {
			if j&poll == 0 {
				if err := ctx.cancelled(); err != nil {
					return err
				}
			}
			if int(h%uint64(parts)) != p || bvd.hasNullKey(j, buildSlots) {
				continue
			}
			ht[h] = append(ht[h], int32(j))
		}
		tables[p] = ht
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 3: the batch-wise probe.
	lSel, rSel := &scr.sel, &scr.selR
	lSel.reset(len(team), nbP)
	rSel.reset(len(team), nbP)
	workers, err := ctx.par.run(fan, nbP, func(w, b int) error {
		s := team[w]
		if s == nil {
			s = &vecScratch{}
			team[w] = s
		}
		var row Row
		if resFn != nil {
			row = s.rowOf(len(outCols))
		}
		ls, rs := lSel.bufs[w], rSel.bufs[w]
		start := len(ls)
		lo := b * bs
		hi := min(lo+bs, pvd.n)
		hash := s.batchHashes(pvd, probeSlots, lo, hi)
		for i := lo; i < hi; i++ {
			if pvd.hasNullKey(i, probeSlots) {
				continue
			}
			h := hash[i-lo]
			for _, bj := range tables[h%uint64(parts)][h] {
				if !keyEqAt(pvd, i, probeSlots, bvd, int(bj), buildSlots) {
					continue
				}
				li, ri := int32(i), bj
				if !buildRight {
					li, ri = bj, int32(i)
				}
				if resFn != nil {
					for c := range lvd.cols {
						row[c] = lvd.cols[c].value(int(li))
					}
					for c := range rvd.cols {
						row[len(lvd.cols)+c] = rvd.cols[c].value(int(ri))
					}
					v, err := resFn(row)
					if err != nil {
						return err
					}
					if v.IsNull() || !v.Bool() {
						continue
					}
				}
				ls = append(ls, li)
				rs = append(rs, ri)
			}
		}
		lSel.bufs[w], rSel.bufs[w] = ls, rs
		lSel.mark(w, b, start)
		rSel.mark(w, b, start)
		ctx.accountBatch(len(ls)-start, len(outCols))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newVecBuilder(lvd.cols, rvd.cols)
	lb := vecBuilder{cols: out.cols[:len(lvd.cols)]}
	rb := vecBuilder{cols: out.cols[len(lvd.cols):]}
	lb.reserve(lSel.len())
	rb.reserve(lSel.len())
	for b := range lSel.runs {
		lb.gather(lvd.cols, lSel.runs[b])
		rb.gather(rvd.cols, rSel.runs[b])
	}
	out.n = lb.n
	ctx.countBatches(nbB + nbP)
	ctx.setBatches(nbP)
	if fan {
		ctx.par.stats.JoinPartitions.Add(int64(parts))
		ctx.par.stats.Morsels.Add(int64(nbB + nbP))
		ctx.setParNote(fmt.Sprintf(" [partitions=%d workers=%d]", parts, workers))
	}
	return &relation{cols: outCols, vec: out.build()}, nil
}

// ---- batch distinct ------------------------------------------------------

// batchDistinct removes duplicate rows of a columnar relation, preserving
// first-occurrence order: per-row class hashes over all columns (NULLs
// included, matching appendRowKey) bucket candidate duplicates, keyEq
// verifies them, and the accumulated survivors gather once into
// exactly-sized fresh vectors.
func batchDistinct(ctx *execCtx, r *relation) (*relation, error) {
	vd := r.vec
	n := vd.n
	bs := ctx.batchSize()
	nb := numBatches(n, bs)
	slots := make([]int, len(vd.cols))
	for i := range slots {
		slots[i] = i
	}
	scr := ctx.borrowVecScratch()
	defer ctx.returnVecScratch(scr)
	buckets := make(map[uint64][]int32, n)
	scr.sel.reset(1, 0)
	sel := scr.sel.bufs[0]
	for b := 0; b < nb; b++ {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		lo := b * bs
		hi := min(lo+bs, n)
		hash := scr.batchHashes(vd, slots, lo, hi)
		before := len(sel)
		for i := lo; i < hi; i++ {
			h := hash[i-lo]
			dup := false
			for _, k := range buckets[h] {
				if keyEqAt(vd, i, slots, vd, int(k), slots) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			buckets[h] = append(buckets[h], int32(i))
			sel = append(sel, int32(i))
		}
		ctx.accountBatch(len(sel)-before, len(r.cols))
	}
	scr.sel.bufs[0] = sel
	out := newVecBuilder(vd.cols)
	out.reserve(len(sel))
	out.gather(vd.cols, sel)
	ctx.countBatches(nb)
	ctx.setBatches(nb)
	return &relation{cols: r.cols, vec: out.build()}, nil
}

// distinctRelation dispatches DISTINCT to the vectorized or row-at-a-time
// implementation. The row path's output is accounted by the caller; the
// batch path accounts itself per batch.
func distinctRelation(ctx *execCtx, r *relation) (*relation, error) {
	if ctx.batchOn() && r.vec != nil {
		return batchDistinct(ctx, r)
	}
	r.matRows()
	return distinctRows(r), nil
}

// ---- batch aggregate -----------------------------------------------------

// batchAggregate is the vectorized grouping/aggregation path for the common
// shape: GROUP BY over plain columns, items that are group columns or
// single-column aggregates, no HAVING. Grouping hashes the key columns per
// batch (keyEq-verified, so group identity matches the row path's
// Value.Key() strings exactly) and keeps per-group row index lists; the
// aggregates then run over column vectors without materializing any input
// row. Returns ok=false when the statement needs the general row path.
func batchAggregate(ctx *execCtx, s *SelectStmt, input *relation) (*relation, bool, error) {
	vd := input.vec
	if s.Having != nil {
		return nil, false, nil
	}
	keySlots := make([]int, len(s.GroupBy))
	for i, g := range s.GroupBy {
		cr, ok := g.(*ColRef)
		if !ok {
			return nil, false, nil
		}
		slot := findCol(input.cols, cr.Table, cr.Name)
		if slot < 0 {
			return nil, false, nil
		}
		keySlots[i] = slot
	}
	// Validate items: plain group columns or single-column aggregates.
	type itemPlan struct {
		slot int       // >= 0: plain column
		agg  *FuncExpr // aggregate call otherwise
		arg  int       // aggregate argument slot; -1 for COUNT(*)
	}
	plans := make([]itemPlan, len(s.Items))
	var outCols []colMeta
	for ii, it := range s.Items {
		if it.Star {
			return nil, false, nil
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
		switch x := it.Expr.(type) {
		case *ColRef:
			slot := findCol(input.cols, x.Table, x.Name)
			if slot < 0 {
				return nil, false, nil
			}
			plans[ii] = itemPlan{slot: slot, arg: -1}
		case *FuncExpr:
			if !isAggregateName(x.Name) {
				return nil, false, nil
			}
			p := itemPlan{slot: -1, agg: x, arg: -1}
			if x.Star {
				if x.Name != "COUNT" {
					// Let the row path produce its canonical error.
					return nil, false, nil
				}
			} else {
				if len(x.Args) != 1 {
					return nil, false, nil
				}
				cr, ok := x.Args[0].(*ColRef)
				if !ok {
					return nil, false, nil
				}
				slot := findCol(input.cols, cr.Table, cr.Name)
				if slot < 0 {
					return nil, false, nil
				}
				p.arg = slot
			}
			plans[ii] = p
		default:
			return nil, false, nil
		}
		outCols = append(outCols, colMeta{table: table, name: name})
	}

	// Vectorized grouping: class hashes per batch, keyEq verification.
	n := vd.n
	bs := ctx.batchSize()
	nb := numBatches(n, bs)
	type vGroup struct {
		first int32
		rows  []int32
	}
	var groups []vGroup
	buckets := make(map[uint64][]int32) // group ids per key hash
	scr := ctx.borrowVecScratch()
	defer ctx.returnVecScratch(scr)
	for b := 0; b < nb; b++ {
		if err := ctx.cancelled(); err != nil {
			return nil, false, err
		}
		lo := b * bs
		hi := min(lo+bs, n)
		hash := scr.batchHashes(vd, keySlots, lo, hi)
		for i := lo; i < hi; i++ {
			h := hash[i-lo]
			gid := int32(-1)
			for _, cand := range buckets[h] {
				if keyEqAt(vd, i, keySlots, vd, int(groups[cand].first), keySlots) {
					gid = cand
					break
				}
			}
			if gid < 0 {
				gid = int32(len(groups))
				groups = append(groups, vGroup{first: int32(i)})
				buckets[h] = append(buckets[h], gid)
			}
			groups[gid].rows = append(groups[gid].rows, int32(i))
		}
	}
	// Aggregates with no GROUP BY over empty input still yield one group.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, vGroup{first: -1})
	}

	out := &relation{cols: outCols, rows: make([]Row, 0, len(groups))}
	for _, g := range groups {
		nr := make(Row, len(plans))
		for ii, p := range plans {
			if p.agg == nil {
				if g.first < 0 {
					nr[ii] = Null
					continue
				}
				nr[ii] = vd.cols[p.slot].value(int(g.first))
				continue
			}
			v, err := computeVecAggregate(p.agg, p.arg, g.rows, vd)
			if err != nil {
				return nil, false, err
			}
			nr[ii] = v
		}
		out.rows = append(out.rows, nr)
	}
	ctx.countBatches(nb)
	ctx.setBatches(nb)
	return out, true, nil
}

// computeVecAggregate evaluates one aggregate call over a group's row
// indices, reading the argument column vector directly. Semantics mirror
// computeAggregate: NULLs are skipped, DISTINCT deduplicates by key class,
// SUM stays integer only when every input is an integer, MIN/MAX pick the
// first extremum under Compare.
func computeVecAggregate(f *FuncExpr, argSlot int, rows []int32, vd *vecData) (Value, error) {
	if f.Star {
		return NewInt(int64(len(rows))), nil
	}
	col := &vd.cols[argSlot]
	count := 0
	allInt := true
	var fi int64
	var ff float64
	var best Value
	haveBest := false
	var seenHash map[uint64][]Value // DISTINCT dedup: class hash + keyEq
	if f.Distinct {
		seenHash = make(map[uint64][]Value)
	}
	for _, ri := range rows {
		i := int(ri)
		if col.nulls.get(i) {
			continue
		}
		v := col.value(i)
		if f.Distinct {
			h := hashCellKey(v)
			dup := false
			for _, s := range seenHash[h] {
				if s.keyEq(v) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seenHash[h] = append(seenHash[h], v)
		}
		count++
		switch f.Name {
		case "SUM", "AVG":
			if v.Kind == KindInt {
				fi += v.I
				ff += float64(v.I)
			} else {
				allInt = false
				fv, ok := v.AsFloat()
				if !ok {
					return Null, fmt.Errorf("sqldb: %s over non-numeric value", f.Name)
				}
				ff += fv
			}
		case "MIN", "MAX":
			if !haveBest {
				best, haveBest = v, true
				continue
			}
			c, err := Compare(v, best)
			if err != nil {
				return Null, err
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch f.Name {
	case "COUNT":
		return NewInt(int64(count)), nil
	case "SUM":
		if count == 0 {
			return Null, nil
		}
		if allInt {
			return NewInt(fi), nil
		}
		return NewFloat(ff), nil
	case "AVG":
		if count == 0 {
			return Null, nil
		}
		return NewFloat(ff / float64(count)), nil
	case "MIN", "MAX":
		if !haveBest {
			return Null, nil
		}
		return best, nil
	}
	return Null, fmt.Errorf("sqldb: unknown aggregate %s", f.Name)
}

// ---- batch projection ----------------------------------------------------

// vecProject applies a SELECT list that is a pure column selection to a
// columnar relation with zero copying: output vectors share the input's
// typed arrays and dictionaries. Returns ok=false when any item computes
// (the caller falls back to the row projection).
func vecProject(items []SelectItem, input *relation) (*relation, bool) {
	vd := input.vec
	var outCols []colMeta
	var picked []colvec
	for _, it := range items {
		if it.Star {
			q := strings.ToLower(it.Table)
			found := false
			for i, c := range input.cols {
				if q == "" || c.table == q {
					outCols = append(outCols, c)
					picked = append(picked, vd.cols[i])
					found = true
				}
			}
			if !found {
				return nil, false
			}
			continue
		}
		cr, ok := it.Expr.(*ColRef)
		if !ok {
			return nil, false
		}
		slot := findCol(input.cols, cr.Table, cr.Name)
		if slot < 0 {
			return nil, false
		}
		name := strings.ToLower(it.Alias)
		table := ""
		if name == "" {
			name = strings.ToLower(cr.Name)
			table = strings.ToLower(cr.Table)
		}
		outCols = append(outCols, colMeta{table: table, name: name})
		picked = append(picked, vd.cols[slot])
	}
	return &relation{cols: outCols, vec: &vecData{n: vd.n, cols: picked}}, true
}
