package sweep

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// execAsync submits a single-cell batch from its own goroutine and returns
// a done channel (Execute blocks until the cell ran).
func execAsync(t *testing.T, p *Pool, pri int, fn func()) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Execute(pri, [][]func(){{fn}}) }()
	return done
}

func waitPending(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pending stuck at %d, want %d", p.Pending(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolPriorityAndBackpressure ports the PR-2 scheduler contract to the
// work-stealing pool: with one occupied worker, queued single-cell batches
// run highest-priority first (FIFO within a priority), and cells beyond the
// depth bound are rejected with ErrQueueFull.
func TestPoolPriorityAndBackpressure(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	gateDone := execAsync(t, p, 0, func() { close(started); <-gate })
	<-started // the worker is now occupied; everything below queues

	var mu sync.Mutex
	var order []string
	var dones []chan error
	enqueue := func(name string, pri int) {
		dones = append(dones, execAsync(t, p, pri, func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}))
		waitPending(t, p, len(dones))
	}
	enqueue("low", -10)
	enqueue("normal-1", 0)
	enqueue("high", 10)
	enqueue("normal-2", 0)

	// The queue is at its bound of 4 now.
	if err := p.Execute(10, [][]func(){{func() {}}}); err != ErrQueueFull {
		t.Fatalf("over-bound submit returned %v, want ErrQueueFull", err)
	}
	if p.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", p.Rejected())
	}

	close(gate)
	if err := <-gateDone; err != nil {
		t.Fatal(err)
	}
	for _, d := range dones {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high", "normal-1", "normal-2", "low"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestPoolSurvivesPanickingCell: a panic inside a cell becomes the
// submitting batch's error; the worker (and later batches) keep running.
func TestPoolSurvivesPanickingCell(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()

	err := p.Execute(0, [][]func(){{func() { panic("boom") }}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking cell returned %v, want wrapped panic", err)
	}
	ran := false
	if err := p.Execute(0, [][]func(){{func() { ran = true }}}); err != nil || !ran {
		t.Fatalf("worker dead after panic: err=%v ran=%v", err, ran)
	}
	// The other cells of a batch with one panicking cell still run.
	count := 0
	var mu sync.Mutex
	err = p.Execute(0, [][]func(){{
		func() { mu.Lock(); count++; mu.Unlock() },
		func() { panic("mid") },
		func() { mu.Lock(); count++; mu.Unlock() },
	}})
	if err == nil || count != 2 {
		t.Fatalf("batch with panic: err=%v, %d/2 healthy cells ran", err, count)
	}
}

// TestPoolStealsAcrossWorkers: a batch submitted as one group lands on one
// worker's deque, but with several workers idle it still finishes with
// multi-worker parallelism — idle workers steal from the loaded deque.
func TestPoolStealsAcrossWorkers(t *testing.T) {
	const workers = 4
	p := NewPool(workers, 0)
	defer p.Close()

	var mu sync.Mutex
	seen := map[chan struct{}]bool{}
	barrier := make(chan struct{})
	// Each cell parks until `workers` cells are running at once — possible
	// only if stealing spreads one group over all workers.
	running := make(chan struct{}, workers)
	cells := make([]func(), workers)
	for i := range cells {
		cells[i] = func() {
			running <- struct{}{}
			mu.Lock()
			if len(running) == workers && !seen[barrier] {
				seen[barrier] = true
				close(barrier)
			}
			mu.Unlock()
			<-barrier
			<-running
		}
	}
	done := make(chan error, 1)
	go func() { done <- p.Execute(0, [][]func(){cells}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("one-group batch never spread across workers (stealing broken)")
	}
}

// TestPoolIdleAdmitsOversizedBatch: the depth bound sheds load behind
// queued work; it must not reject a batch bigger than the bound on an
// idle pool (a paper-scale sweep on a small -queue server would otherwise
// 503 forever).
func TestPoolIdleAdmitsOversizedBatch(t *testing.T) {
	p := NewPool(2, 3)
	defer p.Close()
	var n atomic.Int64
	cells := make([]func(), 10)
	for i := range cells {
		cells[i] = func() { n.Add(1) }
	}
	if err := p.Execute(0, [][]func(){cells}); err != nil {
		t.Fatalf("idle pool rejected a 10-cell batch with depth 3: %v", err)
	}
	if n.Load() != 10 {
		t.Fatalf("ran %d cells, want 10", n.Load())
	}
}

// TestPoolClosedRejects: Execute after Close fails with ErrClosed.
func TestPoolClosedRejects(t *testing.T) {
	p := NewPool(1, 4)
	p.Close()
	if err := p.Execute(0, [][]func(){{func() {}}}); err != ErrClosed {
		t.Fatalf("Execute after Close = %v, want ErrClosed", err)
	}
}

// TestPoolHigherPriorityPreemptsQueuedGroup: a high-priority single cell
// submitted after a large low-priority group overtakes the group's queued
// remainder (it cannot preempt the cell already running).
func TestPoolHigherPriorityPreemptsQueuedGroup(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()

	release := make(chan struct{})
	first := make(chan struct{})
	var mu sync.Mutex
	var order []string
	low := make([]func(), 6)
	for i := range low {
		name := rune('a' + i)
		i := i
		low[i] = func() {
			if i == 0 {
				close(first)
				<-release
			}
			mu.Lock()
			order = append(order, string(name))
			mu.Unlock()
		}
	}
	lowDone := make(chan error, 1)
	go func() { lowDone <- p.Execute(0, [][]func(){low}) }()
	<-first // low group admitted, first cell is running

	hiDone := execAsync(t, p, 10, func() {
		mu.Lock()
		order = append(order, "HIGH")
		mu.Unlock()
	})
	waitPending(t, p, 6) // 5 queued low cells + the high cell

	close(release)
	if err := <-hiDone; err != nil {
		t.Fatal(err)
	}
	if err := <-lowDone; err != nil {
		t.Fatal(err)
	}
	if len(order) != 7 || order[1] != "HIGH" {
		t.Fatalf("high-priority cell did not preempt the queued group: %v", order)
	}
}

// TestPoolBatchStealAmortizesLockTraffic: under fine-grained load (one big
// group of tiny cells), Cilk-style half-deque stealing migrates cells in
// batches, so the lock acquisitions spent stealing stay far below the
// number of cells that changed workers. The pre-batch design took exactly
// one acquisition per stolen cell (StolenCells == Steals); the batch design
// must amortize by a wide factor. The group's first cell holds the
// admitting worker until half the cells have run elsewhere, so the test
// never depends on the other workers waking before that worker drains
// the whole group alone.
func TestPoolBatchStealAmortizesLockTraffic(t *testing.T) {
	const workers = 4
	const cells = 4096
	p := NewPool(workers, 0)
	defer p.Close()

	var ran atomic.Int64
	half := make(chan struct{})
	count := func() {
		if ran.Add(1) == cells/2 {
			close(half)
		}
	}
	group := make([]func(), cells)
	for i := range group {
		group[i] = count
	}
	// The admitting worker pops the front cell in the same lock hold that
	// puts the group on its deque, and thieves take from the back, so
	// group[0] always runs first, on the admitting worker.
	group[0] = func() {
		select {
		case <-half:
		case <-time.After(10 * time.Second):
			t.Error("no other worker ran the held worker's cells within 10s")
		}
		count()
	}
	// One group: every cell lands on the admitting worker's deque, so all
	// other workers' work arrives exclusively by stealing.
	if err := p.Execute(0, [][]func(){group}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != cells {
		t.Fatalf("ran %d cells, want %d", ran.Load(), cells)
	}
	steals, stolen := p.Steals(), p.StolenCells()
	if stolen < cells/2 {
		t.Fatalf("%d cells migrated while the admitting worker was held, want >= %d", stolen, cells/2)
	}
	if steals > stolen/4 {
		t.Errorf("%d steal lock acquisitions for %d migrated cells: batch steal should amortize >= 4x (single-cell stealing would need %d)",
			steals, stolen, stolen)
	}
	t.Logf("steals=%d stolen=%d (%.1f cells per steal acquisition)", steals, stolen, float64(stolen)/float64(steals))
}

// TestPoolStealPreservesOrderWithinBatch: a thief runs its stolen half in
// the original submission order (recording locality depends on it).
func TestPoolStealPreservesOrderWithinBatch(t *testing.T) {
	d := &deque{}
	v := &deque{}
	for i := 0; i < 7; i++ {
		i := i
		v.buf = append(v.buf, cell{pri: 0, run: func() { _ = i }})
	}
	n := d.stealHalfFrom(v)
	if n != 4 || d.size() != 4 || v.size() != 3 {
		t.Fatalf("stole %d cells (thief %d, victim %d), want 4/4/3", n, d.size(), v.size())
	}
	// Victim keeps its front; nothing lost or duplicated.
	total := d.size() + v.size()
	if total != 7 {
		t.Fatalf("cells lost in steal: %d", total)
	}
}
