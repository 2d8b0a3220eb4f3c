package sqldb

import (
	"fmt"
	"slices"
	"sort"
)

// relation is a materialized intermediate result. Base-table scans share the
// table's row storage (rows are never mutated in place by the executor).
type relation struct {
	cols []colMeta
	// rows may alias a base table's storage (star fast path) or another
	// relation's backing array; the sharedmut lint pass enforces that it is
	// freshened with an owned copy before any in-place mutation.
	rows []Row //lint:shared may alias base-table storage
}

// filterRelation keeps rows where pred evaluates to TRUE, one driver task
// per fixed-size morsel: a task appends its morsel's survivors to its
// worker's buffer, and the morsels' stretches concatenate in morsel order —
// the same output at every worker count. evalFns close only over immutable
// bind-time state, so one bound predicate serves all workers.
func filterRelation(ctx *execCtx, r *relation, pred Expr) (*relation, error) {
	f, err := bindExpr(pred, r.cols)
	if err != nil {
		return nil, err
	}
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
	return &relation{cols: r.cols, rows: kept.concat()}, nil
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
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

// extractEquiKeys splits conjuncts into equi-join keys between l and r and
// residual predicates. Conjuncts referring only to one side are also
// returned as residual (callers push those down before joining).
func extractEquiKeys(conjuncts []Expr, l, r *relation) (keys []equiKey, residual []Expr) {
	for _, c := range conjuncts {
		if b, ok := c.(*BinOp); ok && b.Op == OpEq {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				ls := findCol(l.cols, lc.Table, lc.Name)
				rs := findCol(r.cols, rc.Table, rc.Name)
				if ls >= 0 && rs >= 0 && findCol(r.cols, lc.Table, lc.Name) < 0 && findCol(l.cols, rc.Table, rc.Name) < 0 {
					keys = append(keys, equiKey{ls, rs})
					continue
				}
				// try swapped orientation
				ls2 := findCol(l.cols, rc.Table, rc.Name)
				rs2 := findCol(r.cols, lc.Table, lc.Name)
				if ls2 >= 0 && rs2 >= 0 && findCol(r.cols, rc.Table, rc.Name) < 0 && findCol(l.cols, lc.Table, lc.Name) < 0 {
					keys = append(keys, equiKey{ls2, rs2})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}

// hashJoin performs an inner equi-join; residual conjuncts are checked on
// each candidate pair. Three driver runs, each split over the pool when
// the join fans out: build-side key extraction per morsel ("" marks a NULL
// key, which can never join); one hash table per partition, whose task
// scans the build side in row order keeping the rows with hash%P == p, so
// per-key row lists keep build order without locking (a join that does not
// fan out builds its one table the same way); and the probe per morsel,
// each task appending its matches to its worker's buffer. The morsels'
// stretches concatenate in probe order, so the output is the same at every
// worker count, and a residual error surfaces from the earliest failing
// probe morsel.
func hashJoin(ctx *execCtx, l, r *relation, keys []equiKey, residual Expr) (*relation, error) {
	out := &relation{cols: slices.Concat(l.cols, r.cols)}
	var resFn evalFn
	if residual != nil {
		var err error
		resFn, err = bindExpr(residual, out.cols)
		if err != nil {
			return nil, err
		}
	}
	// Build on the smaller side.
	build, probe := r, l
	buildRight := true
	if len(l.rows) < len(r.rows) {
		build, probe = l, r
		buildRight = false
	}
	buildCols, probeCols := keySlots(keys, buildRight)
	nb, np := len(build.rows), len(probe.rows)
	parts := min(ctx.par.par, maxJoinPartitions)
	fan := ctx.par.fanOut(parts, nb+np)
	if !fan {
		parts = 1
	}
	type buildKey struct {
		key  string // "" marks a NULL key
		hash uint64
	}
	buildKeys := make([]buildKey, nb)
	mb := numMorsels(nb)
	if _, err := ctx.par.run(fan, mb, func(_, i int) error {
		for j := i * morselRows; j < min(i*morselRows+morselRows, nb); j++ {
			if !hasNullAt(build.rows[j], buildCols) {
				k := RowKey(build.rows[j], buildCols)
				buildKeys[j] = buildKey{k, hashString(k)}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	tables := make([]map[string][]Row, parts)
	if _, err := ctx.par.run(fan, parts, func(_, p int) error {
		ht := make(map[string][]Row, nb/parts+1)
		for j, k := range buildKeys {
			if j&pollMask == 0 {
				if err := ctx.cancelled(); err != nil {
					return err
				}
			}
			if k.key == "" || int(k.hash%uint64(parts)) != p {
				continue
			}
			ht[k.key] = append(ht[k.key], build.rows[j])
		}
		tables[p] = ht
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
			if hasNullAt(prow, probeCols) {
				continue
			}
			k := RowKey(prow, probeCols)
			for _, brow := range tables[hashString(k)%uint64(parts)][k] {
				lrow, rrow := prow, brow
				if !buildRight {
					lrow, rrow = brow, prow
				}
				row := concatRows(lrow, rrow)
				if resFn != nil {
					v, err := resFn(row)
					if err != nil {
						return err
					}
					if v.IsNull() || !v.Bool() {
						continue
					}
				}
				joined.add(w, row)
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
func mergeJoin(ctx *execCtx, l, r *relation, keys []equiKey, residual Expr) (*relation, error) {
	if len(keys) == 0 {
		return nestedLoopJoin(ctx, l, r, residual)
	}
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	var resFn evalFn
	rest := keys[1:]
	checks := residual
	if residual != nil || len(rest) > 0 {
		var conj []Expr
		if residual != nil {
			conj = append(conj, residual)
		}
		_ = checks
		var err error
		if len(conj) > 0 {
			resFn, err = bindExpr(AndAll(conj), out.cols)
			if err != nil {
				return nil, err
			}
		}
	}
	k0 := keys[0]
	li := ctx.sortedOrder(l, k0.lSlot)
	ri := ctx.sortedOrder(r, k0.rSlot)
	i, j := 0, 0
	steps := 0
	for i < len(li) && j < len(ri) {
		if steps&pollMask == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		steps++
		lv := l.rows[li[i]][k0.lSlot]
		rv := r.rows[ri[j]][k0.rSlot]
		if lv.IsNull() {
			i++
			continue
		}
		if rv.IsNull() {
			j++
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
			j++
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
			j2 := j
			for j2 < len(ri) {
				v := r.rows[ri[j2]][k0.rSlot]
				if v.IsNull() || !Equal(v, rv) {
					break
				}
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
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
					joined := concatRows(lrow, rrow)
					if resFn != nil {
						v, err := resFn(joined)
						if err != nil {
							return nil, err
						}
						if v.IsNull() || !v.Bool() {
							continue
						}
					}
					out.rows = append(out.rows, joined)
				}
			}
			i, j = i2, j2
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

// nestedLoopJoin joins with an arbitrary predicate (nil = cross join).
// ctx may be nil (standalone join without cancellation).
func nestedLoopJoin(ctx *execCtx, l, r *relation, pred Expr) (*relation, error) {
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	var f evalFn
	if pred != nil {
		var err error
		f, err = bindExpr(pred, out.cols)
		if err != nil {
			return nil, err
		}
	}
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		for _, rrow := range r.rows {
			joined := concatRows(lrow, rrow)
			if f != nil {
				v, err := f(joined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			out.rows = append(out.rows, joined)
		}
	}
	return out, nil
}

// leftJoin performs a left outer join with predicate on. Equi components of
// the predicate are used for hashing; the full predicate decides matching.
// ctx may be nil (standalone join without cancellation).
func leftJoin(ctx *execCtx, l, r *relation, on Expr) (*relation, error) {
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	conjuncts := Conjuncts(on)
	keys, residual := extractEquiKeys(conjuncts, l, r)
	var resFn evalFn
	if res := AndAll(residual); res != nil {
		var err error
		resFn, err = bindExpr(res, out.cols)
		if err != nil {
			return nil, err
		}
	}
	nullPad := make(Row, len(r.cols))
	if len(keys) > 0 {
		rCols := make([]int, len(keys))
		lCols := make([]int, len(keys))
		for i, k := range keys {
			rCols[i], lCols[i] = k.rSlot, k.lSlot
		}
		ht := make(map[string][]Row, len(r.rows))
		for _, row := range r.rows {
			if hasNullAt(row, rCols) {
				continue
			}
			k := RowKey(row, rCols)
			ht[k] = append(ht[k], row)
		}
		for i, lrow := range l.rows {
			if i&pollMask == 0 {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
			}
			matched := false
			if !hasNullAt(lrow, lCols) {
				for _, rrow := range ht[RowKey(lrow, lCols)] {
					joined := concatRows(lrow, rrow)
					if resFn != nil {
						v, err := resFn(joined)
						if err != nil {
							return nil, err
						}
						if v.IsNull() || !v.Bool() {
							continue
						}
					}
					out.rows = append(out.rows, joined)
					matched = true
				}
			}
			if !matched {
				out.rows = append(out.rows, concatRows(lrow, nullPad))
			}
		}
		return out, nil
	}
	// no equi keys: nested loop
	var onFn evalFn
	if on != nil {
		var err error
		onFn, err = bindExpr(on, out.cols)
		if err != nil {
			return nil, err
		}
	}
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		matched := false
		for _, rrow := range r.rows {
			joined := concatRows(lrow, rrow)
			if onFn != nil {
				v, err := onFn(joined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			out.rows = append(out.rows, joined)
			matched = true
		}
		if !matched {
			out.rows = append(out.rows, concatRows(lrow, nullPad))
		}
	}
	return out, nil
}

// naturalJoin joins on all same-named columns and keeps the shared columns
// once (from the left side), per SQL NATURAL JOIN semantics.
func naturalJoin(ctx *execCtx, l, r *relation, profile Profile) (*relation, error) {
	type shared struct{ lSlot, rSlot int }
	var commons []shared
	rUsed := make(map[int]bool)
	for ls, lc := range l.cols {
		for rs, rc := range r.cols {
			if rUsed[rs] {
				continue
			}
			if lc.name == rc.name {
				commons = append(commons, shared{ls, rs})
				rUsed[rs] = true
				break
			}
		}
	}
	var keys []equiKey
	for _, c := range commons {
		keys = append(keys, equiKey{c.lSlot, c.rSlot})
	}
	var joined *relation
	var err error
	if len(keys) == 0 {
		joined, err = nestedLoopJoin(ctx, l, r, nil)
	} else if profile == ProfileSortMerge {
		joined, err = mergeJoin(ctx, l, r, keys, nil)
	} else {
		joined, err = hashJoin(ctx, l, r, keys, nil)
	}
	if err != nil {
		return nil, err
	}
	// Project away the right-side copies of shared columns.
	keep := make([]int, 0, len(joined.cols)-len(commons))
	for i := range l.cols {
		keep = append(keep, i)
	}
	for i := range r.cols {
		if !rUsed[i] {
			keep = append(keep, len(l.cols)+i)
		}
	}
	out := &relation{cols: make([]colMeta, len(keep))}
	for i, s := range keep {
		out.cols[i] = joined.cols[s]
	}
	out.rows = make([]Row, len(joined.rows))
	for ri, row := range joined.rows {
		nr := make(Row, len(keep))
		for i, s := range keep {
			nr[i] = row[s]
		}
		out.rows[ri] = nr
	}
	return out, nil
}

// distinctRows removes duplicate rows, preserving first occurrence order.
// Rows are keyed by a hash computed into one reusable buffer — no per-row
// key string — with hash collisions resolved by semantic key comparison,
// so the dedup path allocates only the surviving-row slice and the bucket
// map (see BenchmarkDistinct for the before/after).
func distinctRows(r *relation) *relation {
	out := &relation{cols: r.cols, rows: make([]Row, 0, len(r.rows))}
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
