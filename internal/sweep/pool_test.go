package sweep

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// execute runs a batch under a context that is never cancelled.
func execute(p *Pool, pri int, cells ...func()) error {
	return p.ExecuteContext(context.Background(), pri, cells)
}

// execAsync submits a single-cell batch from its own goroutine and returns
// a done channel (ExecuteContext blocks until the cell ran).
func execAsync(t *testing.T, p *Pool, pri int, fn func()) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- execute(p, pri, fn) }()
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

// TestPoolPriorityAndBackpressure pins the scheduler contract: with one
// occupied worker, queued single-cell batches run highest-priority first
// (FIFO within a priority), and cells beyond the depth bound are rejected
// with ErrQueueFull.
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
	if err := execute(p, 10, func() {}); err != ErrQueueFull {
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

	err := execute(p, 0, func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking cell returned %v, want wrapped panic", err)
	}
	ran := false
	if err := execute(p, 0, func() { ran = true }); err != nil || !ran {
		t.Fatalf("worker dead after panic: err=%v ran=%v", err, ran)
	}
	// The other cells of a batch with one panicking cell still run.
	count := 0
	var mu sync.Mutex
	err = execute(p, 0,
		func() { mu.Lock(); count++; mu.Unlock() },
		func() { panic("mid") },
		func() { mu.Lock(); count++; mu.Unlock() },
	)
	if err == nil || count != 2 {
		t.Fatalf("batch with panic: err=%v, %d/2 healthy cells ran", err, count)
	}
}

// TestPoolOneBatchSpreadsAcrossWorkers: with several workers idle, the
// cells of one batch run on all of them at once.
func TestPoolOneBatchSpreadsAcrossWorkers(t *testing.T) {
	const workers = 4
	p := NewPool(workers, 0)
	defer p.Close()

	var mu sync.Mutex
	seen := map[chan struct{}]bool{}
	barrier := make(chan struct{})
	// Each cell parks until `workers` cells are running at once — possible
	// only if the batch's cells go to every worker.
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
	go func() { done <- execute(p, 0, cells...) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("one batch never spread across workers")
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
	if err := execute(p, 0, cells...); err != nil {
		t.Fatalf("idle pool rejected a 10-cell batch with depth 3: %v", err)
	}
	if n.Load() != 10 {
		t.Fatalf("ran %d cells, want 10", n.Load())
	}
}

// TestPoolClosedRejects: ExecuteContext after Close fails with ErrClosed.
func TestPoolClosedRejects(t *testing.T) {
	p := NewPool(1, 4)
	p.Close()
	if err := execute(p, 0, func() {}); err != ErrClosed {
		t.Fatalf("ExecuteContext after Close = %v, want ErrClosed", err)
	}
}

// TestPoolHigherPriorityPreemptsQueuedGroup: a high-priority single cell
// submitted after a large low-priority batch overtakes the batch's queued
// remainder (it cannot preempt the cell already running), and the
// remainder then runs in order.
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
	go func() { lowDone <- execute(p, 0, low...) }()
	<-first // the low batch's first cell is running

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
	want := []string{"a", "HIGH", "b", "c", "d", "e", "f"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestPoolCancelRemovesQueuedBatch: cancelling a batch that sits inside
// the queue, not at its top, removes exactly that batch's cells and keeps
// the order of the rest — the higher-priority batch first, then the older
// batch of the cancelled one's priority.
func TestPoolCancelRemovesQueuedBatch(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	blocker := execAsync(t, p, 0, func() { close(started); <-gate })
	<-started // the single worker is held; everything below queues

	var mu sync.Mutex
	var order []string
	batchOf := func(name string, n int) []func() {
		cells := make([]func(), n)
		for i := range cells {
			cells[i] = func() {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
		}
		return cells
	}
	submit := func(ctx context.Context, pri int, cells []func()) chan error {
		done := make(chan error, 1)
		go func() { done <- p.ExecuteContext(ctx, pri, cells) }()
		return done
	}
	aDone := submit(context.Background(), 0, batchOf("A", 2))
	waitPending(t, p, 2)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	bDone := submit(ctxB, 0, batchOf("B", 3))
	waitPending(t, p, 5)
	cDone := submit(context.Background(), 5, batchOf("C", 4))
	waitPending(t, p, 9)

	cancelB()
	if err := <-bDone; err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if got := p.Pending(); got != 6 {
		t.Fatalf("Pending() = %d after cancelling B, want 6", got)
	}
	if got := p.Purged(); got != 3 {
		t.Fatalf("Purged() = %d, want 3", got)
	}

	close(gate)
	for _, d := range []chan error{blocker, aDone, cDone} {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"C", "C", "C", "C", "A", "A"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}
