package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gals/internal/core"
	"gals/internal/workload"
)

// TestPoolCancelPurgesQueuedCells pins the teardown half of the deadline
// contract: cancelling an ExecuteContext batch removes its still-queued
// cells from the scheduler without running them, the call returns the
// context error promptly (not after the queue would have drained), and the
// pool stays healthy for later batches.
func TestPoolCancelPurgesQueuedCells(t *testing.T) {
	p := NewPool(1, 64)
	defer p.Close()

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate() // before the deferred Close, or a failed assert deadlocks teardown
	started := make(chan struct{})
	blocker := execAsync(t, p, 0, func() { close(started); <-gate })
	<-started // the single worker is now occupied; everything below queues

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	cells := make([]func(), 16)
	for i := range cells {
		cells[i] = func() { ran.Add(1) }
	}
	done := make(chan error, 1)
	go func() { done <- p.ExecuteContext(ctx, 0, cells) }()
	waitPending(t, p, 16) // the blocker cell is running, not pending

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ExecuteContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecuteContext did not return after cancel (queued cells not purged)")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d cancelled cells ran, want 0", got)
	}
	if got := p.Purged(); got != 16 {
		t.Fatalf("Purged() = %d, want 16", got)
	}

	openGate()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker batch: %v", err)
	}
	// The pool must still execute new work after a purge.
	var after atomic.Int64
	if err := execute(p, 0, func() { after.Add(1) }); err != nil {
		t.Fatalf("ExecuteContext after purge: %v", err)
	}
	if after.Load() != 1 {
		t.Fatal("cell after purge did not run")
	}
}

// TestPoolCancelWaitsForRunningCells pins the safety half: ExecuteContext
// never returns while one of its cells is still executing, even after
// cancellation — callers tear down shared state (trace pools, recordings)
// as soon as it returns, so returning early would be a use-after-free.
func TestPoolCancelWaitsForRunningCells(t *testing.T) {
	p := NewPool(2, 64)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.ExecuteContext(ctx, 0, []func(){func() { close(started); <-gate }})
	}()
	<-started

	cancel()
	select {
	case <-done:
		t.Fatal("ExecuteContext returned while its cell was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteContext = %v, want context.Canceled", err)
	}
}

// TestPoolCancelRacesCellReturn cancels single-cell batches whose cell
// returns on the same ctx, the shape of every galsd /v1/run whose request
// times out: the cell's WaitGroup.Done and the purge started by the
// cancellation run at the same moment. The purge finds the batch already
// out of the queue and must not touch the WaitGroup, or the WaitGroup's
// misuse check can panic a worker (run under -race to widen the window).
func TestPoolCancelRacesCellReturn(t *testing.T) {
	p := NewPool(2, 64)
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				started := make(chan struct{})
				done := make(chan error, 1)
				go func() {
					done <- p.ExecuteContext(ctx, 0, []func(){func() { close(started); <-ctx.Done() }})
				}()
				<-started
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Errorf("ExecuteContext = %v, want context.Canceled", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Purged(); got != 0 {
		t.Fatalf("Purged = %d, want 0: every cancelled cell was already running", got)
	}
}

// TestPoolCancelLeaksNoGoroutines drives many cancelled batches and checks
// the goroutine count settles back: each batch's context.AfterFunc
// registration must be released (stop) when the batch completes, and a
// purge started by a cancellation must not outlive it for long.
func TestPoolCancelLeaksNoGoroutines(t *testing.T) {
	p := NewPool(2, 256)
	before := runtime.NumGoroutine()

	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // half the batches are cancelled before submission
		}
		p.ExecuteContext(ctx, 0, []func(){func() {}, func() {}})
		cancel()
	}
	p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled batches", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidSweepStopsAndReruns pins the sweep-layer degradation
// contract: a cancelled MeasurePhase returns the context error without
// persisting partial aggregates, and an identical rerun without
// cancellation produces the same times as a never-cancelled sweep —
// cancellation must be invisible to results.
func TestCancelMidSweepStopsAndReruns(t *testing.T) {
	specs := workload.Suite()[:2]
	o := Options{Window: 2_000, Workers: 2}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the sweep must refuse to do any work
	oc := o
	oc.Ctx = ctx
	if _, err := MeasurePhase(specs, oc); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasurePhase under cancelled ctx = %v, want context.Canceled", err)
	}

	want, err := MeasurePhase(specs, o)
	if err != nil {
		t.Fatalf("clean MeasurePhase: %v", err)
	}
	oc.Ctx = context.Background()
	got, err := MeasurePhase(specs, oc)
	if err != nil {
		t.Fatalf("rerun MeasurePhase: %v", err)
	}
	for i := range want {
		if want[i].TimeFS != got[i].TimeFS || !reflect.DeepEqual(want[i].Stats, got[i].Stats) {
			t.Fatalf("rerun diverged for %s: time %v != %v", specs[i].Name, got[i].TimeFS, want[i].TimeFS)
		}
	}
}

// TestCancelRunContextObservesDeadline pins the core loop's latency bound:
// RunWith returns within a cancellation quantum of the context expiring,
// and a completed cancellable RunWith is bit-identical to plain Run.
func TestCancelRunContextObservesDeadline(t *testing.T) {
	spec := workload.Suite()[0]
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)

	// Bit-equality on completion.
	want := core.RunWorkload(spec, cfg, 50_000)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, err := core.NewMachine(spec, cfg).RunWith(live, 50_000, core.RunOptions{})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if want.TimeFS != got.TimeFS || !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("RunWith result diverged from Run: %+v != %+v", got, want)
	}

	// Cancellation stops a long window early.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := core.NewMachine(spec, cfg).RunWith(ctx, 1_000_000_000, core.RunOptions{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunWith = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWith did not observe cancellation")
	}
}
