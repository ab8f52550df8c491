// The shared work-stealing cell scheduler. A sweep is decomposed into one
// cell per (configuration, benchmark) pair, submitted as contiguous groups
// (one configuration's cells, in benchmark order — see runCells for why
// that orientation is what lets the streaming accumulator close rows
// early); the worker that admits a group drains it front-to-back while
// idle workers batch-steal half of a sibling's deque from its far end
// (Cilk-style), so migrating work costs one lock acquisition per batch
// rather than per cell.
// One pool instance bounds TOTAL simulation parallelism: the service runs
// every request — single runs, batches, sweeps, suite pipelines — through
// its pool,
// so a 12,800-cell sweep and a stream of /v1/run requests together never
// exceed the configured worker count, and higher-priority groups preempt
// queued (not running) lower-priority work.
package sweep

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Execute when admitting the batch would push
// the pool's pending-cell count past its bound; under overload the caller
// sheds load (HTTP maps it to 503) instead of buffering without limit.
var ErrQueueFull = errors.New("sweep: cell queue full")

// ErrClosed is returned by Execute after Close.
var ErrClosed = errors.New("sweep: pool closed")

// DefaultQueueDepth is the pending-cell bound used when NewPool is given a
// non-positive depth: comfortably above a full 1,024-config x 40-benchmark
// sweep (40,960 cells), so a single paper-scale request never self-rejects.
const DefaultQueueDepth = 1 << 16

// batch ties every cell of one Execute call together so cancellation can
// find and discharge them wherever they sit (priority heap or a worker's
// deque). cancelled is also checked by cells a worker has already popped,
// covering the race where a cell leaves the queue just as the purge runs.
type batch struct {
	wg        sync.WaitGroup
	cancelled atomic.Bool
}

// cell is one queued unit of work with the priority of its batch.
type cell struct {
	pri int
	run func()
	b   *batch
}

// group is a submitted batch of cells awaiting admission to a worker.
type group struct {
	pri   int
	seq   uint64 // submission order: FIFO within a priority
	cells []cell
}

// groupHeap is a max-heap by (priority, -seq).
type groupHeap []*group

func (h groupHeap) Len() int { return len(h) }
func (h groupHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h groupHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x any)   { *h = append(*h, x.(*group)) }
func (h *groupHeap) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return g
}

// deque is one worker's local run queue. The owner consumes from the front
// (cells of one group stay in submission order, so a benchmark's recording
// is replayed back-to-back); thieves take from the back, the end farthest
// from what the owner touches next.
type deque struct {
	buf  []cell
	head int // index of the front cell; len(buf) == head means empty
}

func (d *deque) empty() bool { return d.head == len(d.buf) }
func (d *deque) front() cell { return d.buf[d.head] }
func (d *deque) size() int   { return len(d.buf) - d.head }
func (d *deque) popFront() cell {
	c := d.buf[d.head]
	d.buf[d.head].run = nil
	d.head++
	if d.empty() {
		d.buf, d.head = d.buf[:0], 0
	}
	return c
}

// stealHalfFrom moves the back half of v's cells (at least one) into d,
// which must be empty, preserving their order — the classic Cilk batch
// steal. One lock acquisition migrates the whole batch; the old design
// moved one cell per steal, so fine-grained load paid one acquisition per
// migrated cell. It returns the number of cells moved.
func (d *deque) stealHalfFrom(v *deque) int {
	n := (v.size() + 1) / 2
	start := len(v.buf) - n
	d.buf = append(d.buf[:0], v.buf[start:]...)
	d.head = 0
	for i := start; i < len(v.buf); i++ {
		v.buf[i].run = nil
	}
	v.buf = v.buf[:start]
	if v.empty() {
		v.buf, v.head = v.buf[:0], 0
	}
	return n
}

// purgeBatch removes the batch's cells from the deque in place, preserving
// the order of everything else, and returns how many it removed.
func (d *deque) purgeBatch(b *batch) int {
	if d.empty() {
		return 0
	}
	n := 0
	w := d.head
	for i := d.head; i < len(d.buf); i++ {
		if d.buf[i].b == b {
			n++
			continue
		}
		d.buf[w] = d.buf[i]
		w++
	}
	for i := w; i < len(d.buf); i++ {
		d.buf[i] = cell{}
	}
	d.buf = d.buf[:w]
	if d.empty() {
		d.buf, d.head = d.buf[:0], 0
	}
	return n
}

// pushFrontGroup prepends a group's cells so they run before anything the
// deque already holds (they were admitted because they outrank it).
func (d *deque) pushFrontGroup(g *group) {
	if d.head >= len(g.cells) {
		d.head -= len(g.cells)
		copy(d.buf[d.head:], g.cells)
		return
	}
	buf := make([]cell, 0, len(g.cells)+d.size())
	buf = append(buf, g.cells...)
	buf = append(buf, d.buf[d.head:]...)
	d.buf, d.head = buf, 0
}

// Pool is a bounded work-stealing executor for simulation cells. Create
// with NewPool, submit with Execute, stop with Close. All methods are safe
// for concurrent use. Cells are coarse (one simulation run each, typically
// 0.1 ms - 1 s), so a single mutex over the scheduling state is far from
// contended; the per-worker deques exist for locality and priority, not for
// lock avoidance.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending int // cells in the heap + deques (not yet running)
	queue   groupHeap
	deques  []deque
	seq     uint64
	depth   int
	closed  bool
	workers sync.WaitGroup

	nworkers  int
	inflight  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	purged    atomic.Int64 // cells removed unrun by cancellation
	steals    atomic.Int64 // steal events (one lock acquisition each)
	stolen    atomic.Int64 // cells migrated by steals

	// obs, when set, observes every cell's execution wall time. Atomic so
	// SetObserver is safe against already-running workers; nil (the
	// default, and the CLI's SharedPool forever) costs one pointer load
	// per cell and not even a clock read.
	obs atomic.Pointer[func(d time.Duration)]
}

// NewPool starts a pool of `workers` goroutines bounded at `depth` pending
// cells (<= 0 selects DefaultQueueDepth).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	p := &Pool{depth: depth, nworkers: workers, deques: make([]deque, workers)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go p.work(i)
	}
	return p
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// SharedPool returns the process-wide default pool (GOMAXPROCS workers,
// effectively unbounded queue), created on first use. CLI sweeps without an
// explicit Options.Exec run here, so concurrent sweeps in one process share
// one parallelism bound instead of multiplying worker fleets.
func SharedPool() *Pool {
	sharedOnce.Do(func() { shared = NewPool(runtime.GOMAXPROCS(0), 1<<30) })
	return shared
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.nworkers }

// Pending returns the number of admitted-but-not-running cells.
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// InFlight returns the number of currently executing cells.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Completed returns the number of finished cells.
func (p *Pool) Completed() int64 { return p.completed.Load() }

// Rejected returns the number of Execute batches refused with ErrQueueFull.
func (p *Pool) Rejected() int64 { return p.rejected.Load() }

// Purged returns the number of cells removed unrun by context cancellation.
func (p *Pool) Purged() int64 { return p.purged.Load() }

// Steals returns the number of steal events so far. Each steal is one lock
// acquisition that migrates half the victim's deque; before batch stealing
// it migrated a single cell, so StolenCells()/Steals() is the lock-traffic
// amortization factor under fine-grained load.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// StolenCells returns the number of cells that moved between workers via
// steals.
func (p *Pool) StolenCells() int64 { return p.stolen.Load() }

// SetObserver installs fn to observe every subsequently executed cell's
// wall time (the service feeds its cell-latency histogram). Cells are
// coarse — one simulation run each — so the two clock reads this adds per
// cell are noise. nil uninstalls.
func (p *Pool) SetObserver(fn func(d time.Duration)) {
	if fn == nil {
		p.obs.Store(nil)
		return
	}
	p.obs.Store(&fn)
}

// work is one worker's loop.
func (p *Pool) work(id int) {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		c, ok := p.next(id)
		for !ok && !p.closed {
			p.cond.Wait()
			c, ok = p.next(id)
		}
		if !ok {
			p.mu.Unlock()
			return
		}
		p.pending--
		p.mu.Unlock()

		p.inflight.Add(1)
		if fn := p.obs.Load(); fn != nil {
			t0 := time.Now()
			c.run()
			(*fn)(time.Since(t0))
		} else {
			c.run()
		}
		p.inflight.Add(-1)
		p.completed.Add(1)
	}
}

// next picks worker id's next cell under p.mu: admit the top pending group
// when it outranks the local deque (or the deque is empty), else continue
// the local group, else batch-steal half the fullest sibling's deque into
// the local one and continue from its front. Stolen cells stay in a deque —
// never in private worker state — so they remain visible to Pending, to
// further thieves, and to front-admission preemption by higher-priority
// groups between every cell.
func (p *Pool) next(id int) (cell, bool) {
	d := &p.deques[id]
	if len(p.queue) > 0 && (d.empty() || p.queue[0].pri > d.front().pri) {
		d.pushFrontGroup(heap.Pop(&p.queue).(*group))
	}
	if d.empty() {
		victim, best := -1, 0
		for i := range p.deques {
			if i != id && p.deques[i].size() > best {
				victim, best = i, p.deques[i].size()
			}
		}
		if victim < 0 {
			return cell{}, false
		}
		moved := d.stealHalfFrom(&p.deques[victim])
		p.steals.Add(1)
		p.stolen.Add(int64(moved))
	}
	return d.popFront(), true
}

// Execute runs every cell of every group on the pool and returns when all
// have finished. Cells of one group are kept contiguous on one worker's
// deque (stealing aside) — submit the cells that share a recording as one
// group. Higher pri runs first among queued work; ties are FIFO. A panic
// inside a cell is contained to that cell and reported as the batch's
// error after the remaining cells finish. Execute must not be called from
// inside a cell (the nested batch could wait forever for the worker it is
// occupying).
func (p *Pool) Execute(pri int, groups [][]func()) error {
	return p.ExecuteContext(context.Background(), pri, groups)
}

// ExecuteContext is Execute bounded by ctx: when ctx is cancelled the
// batch's still-queued cells are purged from the scheduler (their lanes
// freed immediately for other batches) and cells already on a worker are
// left to finish — a cell is an opaque func, so it is the cell's own job to
// observe the same ctx and return early. ExecuteContext always waits for
// its running cells before returning, so caller-owned resources (trace
// pools, accumulators) are safe to tear down as soon as it returns; the
// return is ctx.Err() when the batch was cut short.
func (p *Pool) ExecuteContext(ctx context.Context, pri int, groups [][]func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total == 0 {
		return nil
	}

	b := &batch{}
	b.wg.Add(total)
	var panicMu sync.Mutex
	var panicked any
	wrap := func(fn func()) func() {
		return func() {
			defer b.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			if b.cancelled.Load() {
				return
			}
			fn()
		}
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// Account for cells that will never run.
		b.wg.Add(-total)
		return ErrClosed
	}
	// The depth bound is about queuing behind other work, not about batch
	// size: an idle pool (nothing pending) admits a batch of any size, so
	// a sweep larger than the bound runs instead of failing forever, while
	// a loaded pool sheds anything that doesn't fit.
	if p.pending > 0 && p.pending+total > p.depth {
		p.mu.Unlock()
		b.wg.Add(-total)
		p.rejected.Add(1)
		return ErrQueueFull
	}
	for _, fns := range groups {
		if len(fns) == 0 {
			continue
		}
		g := &group{pri: pri, seq: p.seq, cells: make([]cell, len(fns))}
		p.seq++
		for i, fn := range fns {
			g.cells[i] = cell{pri: pri, run: wrap(fn), b: b}
		}
		heap.Push(&p.queue, g)
	}
	p.pending += total
	p.mu.Unlock()
	p.cond.Broadcast()

	var watcher chan struct{}
	var finished chan struct{}
	if ctx.Done() != nil {
		watcher = make(chan struct{})
		finished = make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				p.purge(b)
			case <-finished:
			}
		}()
	}

	b.wg.Wait()
	if watcher != nil {
		close(finished)
		<-watcher // the purge (if any) completed; no goroutine outlives us
	}
	panicMu.Lock()
	defer panicMu.Unlock()
	if panicked != nil {
		return fmt.Errorf("sweep: cell panicked: %v", panicked)
	}
	return ctx.Err()
}

// purge removes the batch's queued cells from the priority heap and every
// worker deque, discharging their WaitGroup slots so ExecuteContext's wait
// ends as soon as the batch's running cells drain.
func (p *Pool) purge(b *batch) {
	b.cancelled.Store(true)
	p.mu.Lock()
	removed := 0
	kept := p.queue[:0]
	for _, g := range p.queue {
		w := 0
		for _, c := range g.cells {
			if c.b == b {
				removed++
				continue
			}
			g.cells[w] = c
			w++
		}
		for i := w; i < len(g.cells); i++ {
			g.cells[i] = cell{}
		}
		g.cells = g.cells[:w]
		if w > 0 {
			kept = append(kept, g)
		}
	}
	for i := len(kept); i < len(p.queue); i++ {
		p.queue[i] = nil
	}
	p.queue = kept
	heap.Init(&p.queue)
	for i := range p.deques {
		removed += p.deques[i].purgeBatch(b)
	}
	p.pending -= removed
	p.mu.Unlock()
	p.purged.Add(int64(removed))
	for i := 0; i < removed; i++ {
		b.wg.Done()
	}
}

// Close drains already-accepted cells, then stops the workers. Subsequent
// Execute calls fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.workers.Wait()
}
