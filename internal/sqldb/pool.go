package sqldb

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// Intra-query parallelism (morsel-driven, after Leis et al.): every
// operator that splits its work into ranges — union arms, filter morsels,
// hash-join key extraction, partitions and probe morsels — has one body
// that works on one range, and the driver, parState.run, is its only
// loop. One worker is the driver's inline case: the calling
// goroutine runs every range in order. Many workers are the same body
// with helpers borrowed from a bounded pool claiming ranges alongside it.
// Range outputs merge in range order, so results are bit-identical at
// every worker count; the only observable differences are wall time and
// the workers= annotations in EXPLAIN ANALYZE. Whether an operator fans
// out at all is one rule, parState.fanOut.
//
// This file is the engine's one sanctioned goroutine spawn point: every
// parallel operator fans out through parState.run, whose workers observe
// the shared cooperative-stop flag. The gohygiene lint pass forbids naked
// go statements anywhere else in internal/sqldb and internal/core.
//
//lint:go-allowed bounded worker pool; tasks observe the stop flag

const (
	// morselRows is the chunk size scan, filter, and probe operators hand
	// to one worker task. Small enough to balance skewed predicates, large
	// enough that the per-task bookkeeping disappears in the scan cost.
	morselRows = 1024
	// pollMask spaces the cancellation polls inside long row loops: one
	// poll per morsel's worth of rows.
	pollMask = morselRows - 1
	// minParallelRows is the operator input size below which fanning out
	// cannot win: coordination costs more than a single worker's pass.
	minParallelRows = 2048
	// maxJoinPartitions caps the partition count of a parallel hash join;
	// beyond this the per-partition build scans dominate.
	maxJoinPartitions = 16
)

// Pool is a bounded supply of helper workers shared by every parallel
// operator of every statement executed against it. Helpers are borrowed
// without blocking: when the pool is drained (all workers busy in other
// operators or other concurrent queries), the requesting operator simply
// runs on its calling goroutine alone. Nested parallel operators therefore
// can never deadlock on pool capacity.
type Pool struct {
	tokens chan struct{}
	size   int // helper slots when fully idle
}

// NewPool returns a pool that will lend out at most workers-1 helper
// goroutines at any moment (the calling goroutine of each operator is the
// always-available worker number one). workers < 2 yields a pool that
// never lends a helper.
func NewPool(workers int) *Pool {
	n := workers - 1
	if n < 0 {
		n = 0
	}
	p := &Pool{tokens: make(chan struct{}, n+1), size: n}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Idle reports whether every helper slot is back in the pool — no
// statement is currently borrowing workers. Serving-path tests use this
// to assert that canceled or failed queries return their slots.
func (p *Pool) Idle() bool {
	if p == nil {
		return true
	}
	return len(p.tokens) == p.size
}

// tryAcquire borrows up to n helper slots without blocking and returns how
// many it got.
func (p *Pool) tryAcquire(n int) int {
	got := 0
	for got < n {
		select {
		case <-p.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n helper slots to the pool.
func (p *Pool) release(n int) {
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// ExecStats accumulates the parallel-execution counters of one or more
// statement executions. All fields are atomics: parallel operators inside
// one statement, and concurrent statements sharing one stats block, may
// bump them simultaneously. core publishes these as the
// npdbench_exec_parallel_* metric family.
type ExecStats struct {
	// Tasks counts the tasks (union arms, partitions, morsels) of
	// operators that fanned out, whoever ran them.
	Tasks atomic.Int64
	// Workers counts helper goroutines launched (excludes the calling
	// goroutine, which always participates).
	Workers atomic.Int64
	// UnionArms counts the arms of unions that fanned out.
	UnionArms atomic.Int64
	// JoinPartitions counts the partitions of hash joins that fanned out.
	JoinPartitions atomic.Int64
	// Morsels counts the filter and hash-join row chunks of operators
	// that fanned out.
	Morsels atomic.Int64
}

// parState is the per-statement handle on the execution driver. Every
// context of one statement carries a copy of it, the union workers' child
// contexts included; its fields are set when the statement starts and only
// read afterwards.
type parState struct {
	pool  *Pool // nil when par is 1
	par   int   // per-operator worker cap; 1 runs every operator inline
	stats *ExecStats
	// ctx carries the statement's cancellation signal; workers stop
	// claiming tasks once it is done. Nil means non-cancellable.
	ctx context.Context
}

// cancelled returns the context's error once the statement's deadline has
// passed or its client has gone away; nil-safe on every level.
func (ps *parState) cancelled() error {
	if ps == nil || ps.ctx == nil {
		return nil
	}
	return ps.ctx.Err()
}

// fanOut is the one fan-out rule of every parallel operator: split the
// work over the pool only when the statement may use more than one worker,
// the work splits into more than one task, and the input holds at least
// minParallelRows rows. Union arms are whole SELECT blocks, so a union
// passes minParallelRows as its input and fans out on its arm count alone.
func (ps *parState) fanOut(tasks, rows int) bool {
	return ps.par > 1 && tasks > 1 && rows >= minParallelRows
}

// slots returns how many worker slots a run can hand out: par when it fans
// out, otherwise only the calling goroutine's slot 0.
func (ps *parState) slots(fan bool) int {
	if fan {
		return ps.par
	}
	return 1
}

// run is the one loop of every operator that splits its work into ranges:
// it executes tasks 0..n-1 and hands each the slot w of the worker running
// it, so operators build per-worker state once per worker. Slot 0 is the
// calling goroutine. Without fan, or when the pool lends no helper, slot 0
// runs every task itself, in order: one-worker execution is this inline
// case, not a second implementation. With fan, up to par-1 helpers borrowed
// non-blockingly from the pool take slots 1.. and claim tasks from a shared
// counter (morsel dispatch); each worker therefore sees its tasks in
// increasing order.
//
// The driver polls cancellation before every task. After any task fails,
// workers stop claiming new ones, and the error reported is the failing
// task with the lowest index — the one inline execution hits first — so
// error propagation is deterministic regardless of scheduling. Runs that
// fan out count their tasks and helpers. Returns the number of workers
// that participated.
func (ps *parState) run(fan bool, n int, task func(w, i int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	helpers := 0
	if fan {
		helpers = ps.pool.tryAcquire(min(ps.par, n) - 1)
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			if err := ps.cancelled(); err != nil {
				ps.countTasks(fan, i, 0)
				return 1, err
			}
			if err := task(0, i); err != nil {
				ps.countTasks(fan, i+1, 0)
				return 1, err
			}
		}
		ps.countTasks(fan, n, 0)
		return 1, nil
	}
	// From here on the helpers are borrowed; return them even if a task
	// panics — a leaked slot would silently shrink the pool for every
	// later query in a long-running server.
	defer ps.pool.release(helpers)
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	work := func(w int) {
		for !stop.Load() {
			if err := ps.cancelled(); err != nil {
				mu.Lock()
				if errIdx == -1 {
					errIdx, firstErr = n, err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(w, i); err != nil {
				mu.Lock()
				if errIdx == -1 || i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	ps.countTasks(fan, min(int(next.Load()), n), helpers)
	return helpers + 1, firstErr
}

// countTasks folds a fanned-out run's claimed tasks and helpers into the
// stats; runs that stay inline by the fan-out rule are not counted.
func (ps *parState) countTasks(fan bool, tasks, workers int) {
	if !fan || ps.stats == nil {
		return
	}
	ps.stats.Tasks.Add(int64(tasks))
	ps.stats.Workers.Add(int64(workers))
}

// setParNote stashes the parallel-execution annotation of the operator
// just executed; the call site that owns the operator's profile node
// collects it with takeParNote and appends it to the detail string.
func (ctx *execCtx) setParNote(note string) {
	if ctx != nil {
		ctx.parNote = note
	}
}

// takeParNote returns and clears the pending annotation.
func (ctx *execCtx) takeParNote() string {
	if ctx == nil || ctx.parNote == "" {
		return ""
	}
	note := ctx.parNote
	ctx.parNote = ""
	return note
}

// numMorsels returns how many morsels n rows split into.
func numMorsels(n int) int {
	return (n + morselRows - 1) / morselRows
}

// borrowRows hands out the context's reusable per-worker row buffers,
// emptying the slot so an unexpected nested borrow allocates fresh ones
// instead of corrupting the outer operator's output. An OBDA unfolding
// executes thousands of small union arms per statement, so the fixed
// per-operator cost of these buffers dominates allocation counts unless
// they are recycled; each union helper owns its child context, and with it
// its own buffers.
func (ctx *execCtx) borrowRows() *runOut[Row] {
	if ctx != nil && ctx.rowBufs != nil {
		o := ctx.rowBufs
		ctx.rowBufs = nil
		return o
	}
	return &runOut[Row]{}
}

// returnRows gives the (possibly grown) buffers back to the context for
// the next operator.
func (ctx *execCtx) returnRows(o *runOut[Row]) {
	if ctx != nil {
		ctx.rowBufs = o
	}
}

// runOut collects the output of one run: worker w appends to bufs[w], and
// task i records in runs[i] the stretch of its worker's buffer it filled.
// Each worker runs its tasks in increasing order, so the stretches taken
// in task order are the inline output at every worker count.
type runOut[T any] struct {
	bufs [][]T // per worker slot
	runs [][]T // per task
}

// reset prepares o for a run of tasks over slots workers, keeping the
// capacity of earlier runs' buffers.
func (o *runOut[T]) reset(slots, tasks int) {
	o.bufs = slices.Grow(o.bufs[:0], slots)[:slots]
	for w := range o.bufs {
		o.bufs[w] = o.bufs[w][:0]
	}
	o.runs = slices.Grow(o.runs[:0], tasks)[:tasks]
}

// add appends v to worker w's buffer.
func (o *runOut[T]) add(w int, v T) {
	o.bufs[w] = append(o.bufs[w], v)
}

// mark records that task i, run by worker w, appended bufs[w][start:].
// Later appends may move the buffer; the stretch keeps the old backing,
// whose cells no later append writes.
func (o *runOut[T]) mark(w, i, start int) {
	b := o.bufs[w]
	o.runs[i] = b[start:len(b):len(b)]
}

// len returns the total output length.
func (o *runOut[T]) len() int {
	n := 0
	for _, b := range o.bufs {
		n += len(b)
	}
	return n
}

// concat returns the stretches joined in task order. When one worker
// filled every stretch, its buffer already is that concatenation: it is
// handed over, and o forgets it.
func (o *runOut[T]) concat() []T {
	n := o.len()
	for w, b := range o.bufs {
		if len(b) == n {
			o.bufs[w] = nil
			return b
		}
	}
	out := make([]T, 0, n)
	for _, r := range o.runs {
		out = append(out, r...)
	}
	return out
}
