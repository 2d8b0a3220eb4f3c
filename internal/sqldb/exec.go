package sqldb

import (
	"fmt"
	"hash/maphash"
	"sort"
)

// relation is a materialized intermediate result. Base-table scans share the
// table's row storage (rows are never mutated in place by the executor).
//
// A relation carries no column names: Prepare resolves every name to a
// slot, and the output names come from the prepared statement.
type relation struct {
	// rows may alias a base table's storage (star fast path) or another
	// relation's backing array; the sharedmut lint pass enforces that it is
	// freshened with an owned copy before any in-place mutation.
	rows []Row //lint:shared may alias base-table storage
}

// filterRelation keeps rows where the bound predicate f evaluates to TRUE,
// one driver task per fixed-size morsel: a task appends its morsel's
// survivors to its worker's buffer, and the morsels' stretches concatenate
// in morsel order — the same output at every worker count. evalFns close
// only over immutable bind-time state, so one bound predicate serves all
// workers.
func filterRelation(ctx *execCtx, r *relation, f evalFn) (*relation, error) {
	n := len(r.rows)
	m := numMorsels(n)
	fan := ctx.par.fanOut(m, n)
	kept := ctx.borrowRows()
	defer ctx.returnRows(kept)
	kept.reset(ctx.par.slots(fan), m)
	workers, err := ctx.par.run(fan, m, func(w, i int) error {
		start := len(kept.bufs[w])
		for _, row := range r.rows[i*morselRows : min(i*morselRows+morselRows, n)] {
			v, err := f(row)
			if err != nil {
				return err
			}
			if !v.IsNull() && v.Bool() {
				kept.add(w, row)
			}
		}
		kept.mark(w, i, start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fan {
		ctx.par.stats.Morsels.Add(int64(m))
		ctx.setParNote(fmt.Sprintf(" [morsels=%d workers=%d]", m, workers))
	}
	return &relation{rows: kept.concat()}, nil
}

// pick lists the slots a join reads of a row pair: l of the left input
// row, then r of the right one.
type pick struct {
	l, r []int
}

// row appends the picked values of the pair (l, r) to dst; a nil r, the
// right side of an unmatched LEFT JOIN row, gives NULLs. Every join builds
// its output rows here, in a fresh row of exactly the picked width, and
// its residual's input rows in a buffer it reuses.
func (p *pick) row(dst, l, r Row) Row {
	for _, s := range p.l {
		dst = append(dst, l[s])
	}
	for _, s := range p.r {
		if r == nil {
			dst = append(dst, Null)
		} else {
			dst = append(dst, r[s])
		}
	}
	return dst
}

// accepts reports whether the join's residual holds on the pair (l, r).
// buf is the caller's row for the residual's input, reused across pairs.
func (j *joinOn) accepts(buf *Row, l, r Row) (bool, error) {
	if j.pred == nil {
		return true, nil
	}
	*buf = j.check.row((*buf)[:0], l, r)
	v, err := j.pred(*buf)
	return err == nil && !v.IsNull() && v.Bool(), err
}

// emitRow builds the join's output row of the pair (l, r).
func (j *joinOn) emitRow(l, r Row) Row {
	return j.emit.row(make(Row, 0, len(j.emit.l)+len(j.emit.r)), l, r)
}

// equiKey describes one equality column pair between two relations.
type equiKey struct {
	lSlot, rSlot int
}

// keySlots splits equi-join keys into the build side's and the probe
// side's column slots.
func keySlots(keys []equiKey, buildRight bool) (build, probe []int) {
	slots := make([]int, 2*len(keys))
	build, probe = slots[:len(keys)], slots[len(keys):]
	for i, k := range keys {
		if buildRight {
			build[i], probe[i] = k.rSlot, k.lSlot
		} else {
			build[i], probe[i] = k.lSlot, k.rSlot
		}
	}
	return build, probe
}

// joinSeed seeds every equi-join key hash. A table is only ever walked
// per probe key, so the seed never shows in any output order.
var joinSeed = maphash.MakeSeed()

// joinKeyHash hashes the typed key values of row at cols: their Key()
// encodings appended into buf, which the caller reuses across rows.
// Values with equal keys (1 and 1.0 included) hash equally; candidates
// with equal hashes are confirmed with joinKeysEq.
func joinKeyHash(buf []byte, row Row, cols []int) ([]byte, uint64) {
	buf = buf[:0]
	for _, c := range cols {
		buf = row[c].appendKey(buf)
	}
	return buf, maphash.Bytes(joinSeed, buf)
}

// joinKeysEq reports whether a's key values at acols equal b's at bcols
// under Key() equality. Both rows must have non-NULL keys: NULLs would
// compare equal here, but a NULL key never joins.
func joinKeysEq(a Row, acols []int, b Row, bcols []int) bool {
	for i, c := range acols {
		if !a[c].keyEq(b[bcols[i]]) {
			return false
		}
	}
	return true
}

// chainRow links build row j into the chain of hash h. Callers walk the
// build side backwards, so each chain lists its rows in build order; -1
// ends a chain.
func chainRow(head map[uint64]int32, next []int32, h uint64, j int) {
	if c, ok := head[h]; ok {
		next[j] = c
	} else {
		next[j] = -1
	}
	head[h] = int32(j)
}

// hashJoin performs an inner equi-join; the residual is checked on each
// candidate pair. Three driver runs, each
// split over the pool when the join fans out: build-side key hashing per
// morsel (a NULL key can never join); one table per partition, whose task
// walks the build side keeping the rows with hash%P == p and chains them
// per hash in build order (a join that does not fan out builds its one
// table the same way); and the probe per morsel, each task appending its
// matches to its worker's buffer. Keys are typed values hashed out of a
// buffer each worker reuses, so neither side builds a string per row. The
// morsels' stretches concatenate in probe order, so the output is the same
// at every worker count, and a residual error surfaces from the earliest
// failing probe morsel. Each output row holds the join's emit pick only.
func hashJoin(ctx *execCtx, l, r *relation, j *joinOn) (*relation, error) {
	out := &relation{}
	// Build on the smaller side.
	build, probe := r, l
	buildRight := true
	if len(l.rows) < len(r.rows) {
		build, probe = l, r
		buildRight = false
	}
	buildCols, probeCols := keySlots(j.keys, buildRight)
	nb, np := len(build.rows), len(probe.rows)
	parts := min(ctx.par.par, maxJoinPartitions)
	fan := ctx.par.fanOut(parts, nb+np)
	if !fan {
		parts = 1
	}
	bufs := make([][]byte, ctx.par.slots(fan))
	var checks []Row // each worker's residual input row
	if j.pred != nil {
		checks = make([]Row, len(bufs))
	}
	hashes := make([]uint64, nb)
	nulls := make([]bool, nb)
	mb := numMorsels(nb)
	if _, err := ctx.par.run(fan, mb, func(w, i int) error {
		for j := i * morselRows; j < min(i*morselRows+morselRows, nb); j++ {
			if hasNullAt(build.rows[j], buildCols) {
				nulls[j] = true
				continue
			}
			bufs[w], hashes[j] = joinKeyHash(bufs[w], build.rows[j], buildCols)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Every build row lands in one partition, so the partition tasks
	// write disjoint entries of next.
	next := make([]int32, nb)
	heads := make([]map[uint64]int32, parts)
	if _, err := ctx.par.run(fan, parts, func(_, p int) error {
		head := make(map[uint64]int32, nb/parts+1)
		for j := nb - 1; j >= 0; j-- {
			if j&pollMask == 0 {
				if err := ctx.cancelled(); err != nil {
					return err
				}
			}
			if nulls[j] || int(hashes[j]%uint64(parts)) != p {
				continue
			}
			chainRow(head, next, hashes[j], j)
		}
		heads[p] = head
		return nil
	}); err != nil {
		return nil, err
	}
	mp := numMorsels(np)
	joined := ctx.borrowRows()
	defer ctx.returnRows(joined)
	joined.reset(ctx.par.slots(fan), mp)
	workers, err := ctx.par.run(fan, mp, func(w, i int) error {
		start := len(joined.bufs[w])
		for _, prow := range probe.rows[i*morselRows : min(i*morselRows+morselRows, np)] {
			if nb == 0 || hasNullAt(prow, probeCols) {
				continue
			}
			var h uint64
			bufs[w], h = joinKeyHash(bufs[w], prow, probeCols)
			b, ok := heads[h%uint64(parts)][h]
			if !ok {
				continue
			}
			for ; b >= 0; b = next[b] {
				brow := build.rows[b]
				if !joinKeysEq(brow, buildCols, prow, probeCols) {
					continue
				}
				lrow, rrow := prow, brow
				if !buildRight {
					lrow, rrow = brow, prow
				}
				if j.pred != nil {
					if ok, err := j.accepts(&checks[w], lrow, rrow); !ok {
						if err != nil {
							return err
						}
						continue
					}
				}
				joined.add(w, j.emitRow(lrow, rrow))
			}
		}
		joined.mark(w, i, start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fan {
		ctx.par.stats.JoinPartitions.Add(int64(parts))
		ctx.par.stats.Morsels.Add(int64(mb + mp))
		ctx.setParNote(fmt.Sprintf(" [partitions=%d workers=%d]", parts, workers))
	}
	out.rows = joined.concat()
	return out, nil
}

// mergeJoin sorts both sides on the first key column and merges; remaining
// keys and residual conjuncts are verified per pair. It reproduces the
// "PostgreSQL-like" profile behaviour (sort-merge machinery). ctx may be
// nil (standalone join without a statement's sort-order cache).
func mergeJoin(ctx *execCtx, l, r *relation, j *joinOn) (*relation, error) {
	if len(j.keys) == 0 {
		return nestedLoopJoin(ctx, l, r, j)
	}
	out := &relation{}
	rest := j.keys[1:]
	k0 := j.keys[0]
	var check Row
	li := ctx.sortedOrder(l, k0.lSlot)
	ri := ctx.sortedOrder(r, k0.rSlot)
	i, k := 0, 0
	steps := 0
	for i < len(li) && k < len(ri) {
		if steps&pollMask == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		steps++
		lv := l.rows[li[i]][k0.lSlot]
		rv := r.rows[ri[k]][k0.rSlot]
		if lv.IsNull() {
			i++
			continue
		}
		if rv.IsNull() {
			k++
			continue
		}
		c, err := Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch {
		case c < 0:
			i++
		case c > 0:
			k++
		default:
			// find the equal runs
			i2 := i
			for i2 < len(li) {
				v := l.rows[li[i2]][k0.lSlot]
				if v.IsNull() || !Equal(v, lv) {
					break
				}
				i2++
			}
			k2 := k
			for k2 < len(ri) {
				v := r.rows[ri[k2]][k0.rSlot]
				if v.IsNull() || !Equal(v, rv) {
					break
				}
				k2++
			}
			for a := i; a < i2; a++ {
				for b := k; b < k2; b++ {
					lrow, rrow := l.rows[li[a]], r.rows[ri[b]]
					ok := true
					for _, k := range rest {
						if !Equal(lrow[k.lSlot], rrow[k.rSlot]) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					if ok, err := j.accepts(&check, lrow, rrow); !ok {
						if err != nil {
							return nil, err
						}
						continue
					}
					out.rows = append(out.rows, j.emitRow(lrow, rrow))
				}
			}
			i, k = i2, k2
		}
	}
	return out, nil
}

// computeSortedOrder materializes the row order of r sorted by column
// slot. Callers go through execCtx.sortedOrder, the context-aware wrapper
// that caches per statement; this is the single underlying implementation.
func computeSortedOrder(r *relation, slot int) []int {
	idx := make([]int, len(r.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c, err := Compare(r.rows[idx[a]][slot], r.rows[idx[b]][slot])
		return err == nil && c < 0
	})
	return idx
}

// nestedLoopJoin joins every pair its residual accepts (no residual: a
// cross join). ctx may be nil (standalone join without cancellation).
func nestedLoopJoin(ctx *execCtx, l, r *relation, j *joinOn) (*relation, error) {
	out := &relation{}
	var check Row
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		for _, rrow := range r.rows {
			if ok, err := j.accepts(&check, lrow, rrow); !ok {
				if err != nil {
					return nil, err
				}
				continue
			}
			out.rows = append(out.rows, j.emitRow(lrow, rrow))
		}
	}
	return out, nil
}

// leftJoin performs a left outer join; an unmatched left row is emitted
// with NULLs in the picked right slots. With equi keys, the right side is
// hashed on them and the residual decides matching; without, the residual
// is the whole ON predicate, tested on every pair. ctx may be nil
// (standalone join without cancellation).
func leftJoin(ctx *execCtx, l, r *relation, j *joinOn) (*relation, error) {
	out := &relation{}
	var check Row
	// match emits the pair (lrow, rrow) when the residual accepts it.
	match := func(lrow, rrow Row) (bool, error) {
		ok, err := j.accepts(&check, lrow, rrow)
		if ok {
			out.rows = append(out.rows, j.emitRow(lrow, rrow))
		}
		return ok, err
	}
	if len(j.keys) > 0 {
		lCols, rCols := keySlots(j.keys, false)
		next := make([]int32, len(r.rows))
		head := make(map[uint64]int32, len(r.rows))
		var buf []byte
		for k := len(r.rows) - 1; k >= 0; k-- {
			if hasNullAt(r.rows[k], rCols) {
				continue
			}
			var h uint64
			buf, h = joinKeyHash(buf, r.rows[k], rCols)
			chainRow(head, next, h, k)
		}
		for i, lrow := range l.rows {
			if i&pollMask == 0 {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
			}
			matched := false
			if !hasNullAt(lrow, lCols) {
				var h uint64
				buf, h = joinKeyHash(buf, lrow, lCols)
				k, ok := head[h]
				for ; ok && k >= 0; k = next[k] {
					rrow := r.rows[k]
					if !joinKeysEq(rrow, rCols, lrow, lCols) {
						continue
					}
					hit, err := match(lrow, rrow)
					if err != nil {
						return nil, err
					}
					matched = matched || hit
				}
			}
			if !matched {
				out.rows = append(out.rows, j.emitRow(lrow, nil))
			}
		}
		return out, nil
	}
	// no equi keys: nested loop
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		matched := false
		for _, rrow := range r.rows {
			hit, err := match(lrow, rrow)
			if err != nil {
				return nil, err
			}
			matched = matched || hit
		}
		if !matched {
			out.rows = append(out.rows, j.emitRow(lrow, nil))
		}
	}
	return out, nil
}

// distinctRows removes duplicate rows, preserving first occurrence order.
// Rows are keyed by a hash computed into one reusable buffer — no per-row
// key string — with hash collisions resolved by semantic key comparison,
// so the dedup path allocates only the surviving-row slice and the bucket
// map (see BenchmarkDistinct for the before/after).
func distinctRows(r *relation) *relation {
	out := &relation{rows: make([]Row, 0, len(r.rows))}
	buckets := make(map[uint64][]int, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row, nil)
		h := hashBytes(buf)
		dup := false
		for _, i := range buckets[h] {
			if rowKeyEq(out.rows[i], row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buckets[h] = append(buckets[h], len(out.rows))
		out.rows = append(out.rows, row)
	}
	return out
}

// sortRelation sorts rows by the given key functions, writing the new
// order into r's row slice in place: callers own r's backing array
// (orderRelation freshens it first, exactly because the slice can alias a
// base table via the star fast path). Key j reads input[i] instead of
// row i when fromInput[j] is set.
//
//lint:mutates r
func sortRelation(r *relation, keys []evalFn, desc, fromInput []bool, input []Row) error {
	type keyed struct {
		row  Row
		keys []Value
	}
	ks := make([]keyed, len(r.rows))
	for i, row := range r.rows {
		kv := make([]Value, len(keys))
		for j, f := range keys {
			src := row
			if fromInput[j] {
				src = input[i]
			}
			v, err := f(src)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ks[i] = keyed{row, kv}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j := range keys {
			c, err := Compare(ks[a].keys[j], ks[b].keys[j])
			if err != nil {
				continue
			}
			if c == 0 {
				continue
			}
			if desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range ks {
		r.rows[i] = ks[i].row
	}
	return nil
}

// relationFingerprint digests a relation order-insensitively (tests use it
// for multiset equality between profiles): per-row key hashes encoded into
// one reusable buffer are combined commutatively, so no per-row strings
// and no sort are needed.
func relationFingerprint(r *relation) string {
	var buf []byte
	var sum, xor uint64
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row, nil)
		h := hashBytes(buf)
		sum += h
		xor ^= h
	}
	return fmt.Sprintf("%d:%016x:%016x", len(r.rows), sum, xor)
}
