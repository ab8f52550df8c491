// The shared cell scheduler. A sweep is decomposed into one cell per
// (configuration, benchmark) pair and submitted as one batch, in
// configuration-major order (see runCells for why that order lets the
// streaming accumulator close rows early). The pool is one priority queue
// of batches: every idle worker takes the next cell of the top batch, so
// one batch spreads over all workers and a higher-priority batch overtakes
// queued (not running) work at the next cell boundary.
// One pool instance bounds TOTAL simulation parallelism: the service runs
// every request — single runs, batches, sweeps, suite pipelines — through
// its pool, so a 12,800-cell sweep and a stream of /v1/run requests
// together never exceed the configured worker count.
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

// ErrQueueFull is returned by ExecuteContext when admitting the batch
// would push the pool's pending-cell count past its bound; under overload
// the caller sheds load (HTTP maps it to 503) instead of buffering without
// limit.
var ErrQueueFull = errors.New("sweep: cell queue full")

// ErrClosed is returned by ExecuteContext after Close.
var ErrClosed = errors.New("sweep: pool closed")

// DefaultQueueDepth is the pending-cell bound used when NewPool is given a
// non-positive depth: comfortably above a full 1,024-config x 40-benchmark
// sweep (40,960 cells), so a single paper-scale request never self-rejects.
const DefaultQueueDepth = 1 << 16

// batch is the cells of one ExecuteContext call. Workers hand out
// cells[next:] in order; the batch stays in the queue until its last cell
// has been handed out. cancelled is also checked by cells a worker has
// already taken, covering the race where a cell leaves the queue just as
// the purge runs.
type batch struct {
	pri       int
	seq       uint64 // submission order: FIFO within a priority
	cells     []func()
	next      int
	index     int // position in Pool.queue, -1 once out of it
	wg        sync.WaitGroup
	cancelled atomic.Bool
	panicked  atomic.Pointer[any] // the first panic of any cell
}

// run executes one of the batch's cells, containing a panic to the cell.
func (b *batch) run(fn func()) {
	defer b.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			b.panicked.CompareAndSwap(nil, &r)
		}
	}()
	if !b.cancelled.Load() {
		fn()
	}
}

// batchHeap is a max-heap by (priority, -seq).
type batchHeap []*batch

func (h batchHeap) Len() int { return len(h) }
func (h batchHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h batchHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *batchHeap) Push(x any) {
	b := x.(*batch)
	b.index = len(*h)
	*h = append(*h, b)
}
func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	b.index = -1
	*h = old[:n-1]
	return b
}

// Pool is a bounded executor for simulation cells. Create with NewPool,
// submit with ExecuteContext, stop with Close. All methods are safe for
// concurrent use. Cells are coarse (one simulation run each, typically
// 0.1 ms - 1 s), so one mutex over the queue is far from contended.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending int // cells not yet handed to a worker
	queue   batchHeap
	seq     uint64
	depth   int
	closed  bool
	workers sync.WaitGroup

	nworkers  int
	inflight  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	purged    atomic.Int64 // cells removed unrun by cancellation

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
	p := &Pool{depth: depth, nworkers: workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go p.work()
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

// Rejected returns the number of batches refused with ErrQueueFull.
func (p *Pool) Rejected() int64 { return p.rejected.Load() }

// Purged returns the number of cells removed unrun by context cancellation.
func (p *Pool) Purged() int64 { return p.purged.Load() }

// Steals and StolenCells always return 0: the pool has one shared queue,
// so no cell moves between workers. They remain only because the galsbench
// probes in the separate bench module still read them.
func (p *Pool) Steals() int64      { return 0 }
func (p *Pool) StolenCells() int64 { return 0 }

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

// work is one worker's loop: take the next cell of the top batch, popping
// the batch once its last cell is handed out, and run it.
func (p *Pool) work() {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		b := p.queue[0]
		fn := b.cells[b.next]
		b.cells[b.next] = nil // a taken closure need not outlive its run
		b.next++
		if b.next == len(b.cells) {
			heap.Pop(&p.queue)
		}
		p.pending--
		p.mu.Unlock()

		p.inflight.Add(1)
		if obs := p.obs.Load(); obs != nil {
			t0 := time.Now()
			b.run(fn)
			(*obs)(time.Since(t0))
		} else {
			b.run(fn)
		}
		p.inflight.Add(-1)
		p.completed.Add(1)
	}
}

// ExecuteContext runs every cell on the pool and returns when all have
// finished. Higher pri runs first among queued work; ties are FIFO by
// submission, and a batch's cells are handed out in order. A panic inside
// a cell is contained to that cell and reported as the batch's error after
// the remaining cells finish. When ctx is cancelled the batch's
// still-queued cells are purged (their lanes freed immediately for other
// batches) and cells already on a worker are left to finish — a cell is
// an opaque func, so it is the cell's own job to observe the same ctx and
// return early. ExecuteContext always waits for its running cells before
// returning, so caller-owned resources (trace pools, accumulators) are
// safe to tear down as soon as it returns; the return is ctx.Err() when
// the batch was cut short. The pool takes over cells: each entry is set to
// nil once a worker has it. It must not be called from inside a cell (the
// nested batch could wait forever for the worker it is occupying).
func (p *Pool) ExecuteContext(ctx context.Context, pri int, cells []func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(cells) == 0 {
		return nil
	}

	b := &batch{pri: pri, cells: cells}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	// The depth bound is about queuing behind other work, not about batch
	// size: an idle pool (nothing pending) admits a batch of any size, so
	// a sweep larger than the bound runs instead of failing forever, while
	// a loaded pool sheds anything that doesn't fit.
	if p.pending > 0 && p.pending+len(cells) > p.depth {
		p.mu.Unlock()
		p.rejected.Add(1)
		return ErrQueueFull
	}
	b.seq = p.seq
	p.seq++
	b.wg.Add(len(cells))
	heap.Push(&p.queue, b)
	p.pending += len(cells)
	p.mu.Unlock()
	p.cond.Broadcast()

	stop := context.AfterFunc(ctx, func() { p.purge(b) })
	b.wg.Wait()
	stop()
	if r := b.panicked.Load(); r != nil {
		return fmt.Errorf("sweep: cell panicked: %v", *r)
	}
	return ctx.Err()
}

// purge removes the batch's queued cells, discharging their WaitGroup
// slots so ExecuteContext's wait ends as soon as the batch's running cells
// drain. A batch already out of the queue has nothing to discharge, and
// purge must then leave the WaitGroup alone: it runs on its own goroutine,
// and even an Add(0) racing the last cell's Done and the Wait can trip
// the WaitGroup's misuse check.
func (p *Pool) purge(b *batch) {
	b.cancelled.Store(true)
	p.mu.Lock()
	if b.index < 0 {
		p.mu.Unlock()
		return
	}
	removed := len(b.cells) - b.next
	heap.Remove(&p.queue, b.index)
	p.pending -= removed
	p.mu.Unlock()
	p.purged.Add(int64(removed))
	b.wg.Add(-removed)
}

// Close drains already-accepted cells, then stops the workers. Subsequent
// ExecuteContext calls fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.workers.Wait()
}
