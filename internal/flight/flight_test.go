package flight

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// parkCtx is a live context that reports when Do first asks for its Done
// channel, which a waiter does only once it has found another caller's
// computation and is about to wait on it.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkCtx(parent context.Context) *parkCtx {
	return &parkCtx{Context: parent, parked: make(chan struct{})}
}

func (p *parkCtx) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

type result struct {
	v      int
	shared bool
	err    error
}

// do runs g.Do in a goroutine and delivers its result.
func do(g *Group[string, int], ctx context.Context, fn func(context.Context) (int, error)) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, shared, err := g.Do(ctx, "k", fn)
		out <- result{v, shared, err}
	}()
	return out
}

// leader starts a computation of "k" that returns v once release closes,
// or its context's error, and returns once it is running.
func leader(g *Group[string, int], ctx context.Context, release <-chan struct{}, v int, err error) <-chan result {
	running := make(chan struct{})
	out := do(g, ctx, func(ctx context.Context) (int, error) {
		close(running)
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-release:
			return v, err
		case <-done:
			return 0, ctx.Err()
		}
	})
	<-running
	return out
}

// waiter joins "k" with ctx and returns once it waits on the computation.
func waiter(t *testing.T, g *Group[string, int], ctx *parkCtx, v int) <-chan result {
	out := do(g, ctx, func(context.Context) (int, error) { return v, nil })
	select {
	case <-ctx.parked:
	case r := <-out:
		t.Fatalf("waiter returned %+v without waiting", r)
	}
	return out
}

func never(t *testing.T) func(context.Context) (int, error) {
	return func(context.Context) (int, error) {
		t.Error("fn ran for a key with a kept result")
		return 0, nil
	}
}

func TestSharedSuccessIsKept(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	lead := leader(&g, context.Background(), release, 1, nil)
	wait := waiter(t, &g, newParkCtx(context.Background()), 2)
	close(release)
	if r := <-lead; r != (result{1, false, nil}) {
		t.Fatalf("leader = %+v, want its own 1", r)
	}
	if r := <-wait; r != (result{1, true, nil}) {
		t.Fatalf("waiter = %+v, want the shared 1", r)
	}
	if r := <-do(&g, nil, never(t)); r != (result{1, true, nil}) {
		t.Fatalf("later caller = %+v, want the kept 1", r)
	}
	if v, ok := g.Peek("k"); !ok || v != 1 {
		t.Fatalf("Peek = %d, %v; want the kept 1", v, ok)
	}
}

func TestTakeoverAfterLeaderCancelled(t *testing.T) {
	var g Group[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	lead := leader(&g, ctx, nil, 0, nil)
	wait := waiter(t, &g, newParkCtx(context.Background()), 2)
	cancel()
	if r := <-lead; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled leader = %+v, want context.Canceled", r)
	}
	if r := <-wait; r != (result{2, false, nil}) {
		t.Fatalf("live waiter = %+v, want its own 2", r)
	}
	if v, ok := g.Peek("k"); !ok || v != 2 {
		t.Fatalf("Peek = %d, %v; want the taken-over 2 kept", v, ok)
	}
}

func TestWaiterOwnDeadline(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	lead := leader(&g, context.Background(), release, 1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := <-do(&g, ctx, never(t))
	if !errors.Is(r.err, context.DeadlineExceeded) || !r.shared {
		t.Fatalf("waiter = %+v; want a shared DeadlineExceeded", r)
	}
	// Its deadline ended only the waiter: the leader still finishes and
	// its result is kept.
	close(release)
	if r := <-lead; r != (result{1, false, nil}) {
		t.Fatalf("leader = %+v, want its own 1", r)
	}
	if v, ok := g.Peek("k"); !ok || v != 1 {
		t.Fatalf("Peek = %d, %v; want the kept 1", v, ok)
	}
	// A waiter whose context is dead when the leader is cancelled does not
	// take over: it returns its own error.
	g.Forget("k")
	lctx, lcancel := context.WithCancel(context.Background())
	lead = leader(&g, lctx, nil, 0, nil)
	wctx, wcancel := context.WithCancel(context.Background())
	wait := waiter(t, &g, newParkCtx(wctx), 2)
	wcancel()
	lcancel()
	<-lead
	if r := <-wait; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter = %+v, want context.Canceled", r)
	}
}

func TestErrorSharedNotKept(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	lead := leader(&g, context.Background(), release, 0, boom)
	wait := waiter(t, &g, newParkCtx(context.Background()), 2)
	close(release)
	if r := <-lead; !errors.Is(r.err, boom) || r.shared {
		t.Fatalf("leader = %+v, want its own boom", r)
	}
	if r := <-wait; !errors.Is(r.err, boom) || !r.shared {
		t.Fatalf("joined waiter = %+v, want the shared boom", r)
	}
	if _, ok := g.Peek("k"); ok || g.Len() != 0 {
		t.Fatalf("a failed computation was kept (Len %d)", g.Len())
	}
	if r := <-do(&g, nil, func(context.Context) (int, error) { return 7, nil }); r != (result{7, false, nil}) {
		t.Fatalf("caller after the failure = %+v, want its own 7", r)
	}
}

func TestForgetAndReset(t *testing.T) {
	var g Group[string, int]
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := g.Do(nil, k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	g.Forget("a")
	v, shared, _ := g.Do(nil, "a", func(context.Context) (int, error) { return 10, nil })
	if v != 10 || shared {
		t.Fatalf("after Forget: %d, shared %v; want a fresh 10", v, shared)
	}
	kept := g.Reset()
	sum := 0
	for _, v := range kept {
		sum += v
	}
	if len(kept) != 3 || sum != 10+1+2 {
		t.Fatalf("Reset returned %v, want the kept 10, 1 and 2", kept)
	}
	if _, ok := g.Peek("b"); ok || g.Len() != 0 {
		t.Fatalf("Reset left %d keys", g.Len())
	}

	// A computation forgotten in flight still delivers to its waiters but
	// is not kept, and Reset does not return it.
	release := make(chan struct{})
	lead := leader(&g, nil, release, 5, nil)
	wait := waiter(t, &g, newParkCtx(context.Background()), 6)
	if kept := g.Reset(); len(kept) != 0 {
		t.Fatalf("Reset returned in-flight values %v", kept)
	}
	close(release)
	<-lead
	if r := <-wait; r != (result{5, true, nil}) {
		t.Fatalf("waiter on a forgotten computation = %+v, want the shared 5", r)
	}
	if _, ok := g.Peek("k"); ok {
		t.Fatal("a computation forgotten in flight was kept")
	}
}

func TestNilContextNeverCancels(t *testing.T) {
	var g Group[string, int]
	seen := context.Background()
	r := <-do(&g, nil, func(ctx context.Context) (int, error) {
		seen = ctx
		return 4, nil
	})
	if seen != nil || r != (result{4, false, nil}) {
		t.Fatalf("fn saw ctx %v (want nil) and returned %+v", seen, r)
	}
	// A nil-context runner's context never ends, so even a context error
	// from its fn is an ordinary failure: shared, not taken over.
	g.Forget("k")
	release := make(chan struct{})
	lead := leader(&g, nil, release, 0, context.Canceled)
	wait := waiter(t, &g, newParkCtx(context.Background()), 2)
	close(release)
	<-lead
	if r := <-wait; !errors.Is(r.err, context.Canceled) || !r.shared {
		t.Fatalf("waiter on a nil-context runner = %+v, want its shared error", r)
	}
}

func TestPanicReleasesKey(t *testing.T) {
	var g Group[string, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the runner")
			}
		}()
		g.Do(nil, "k", func(context.Context) (int, error) { panic("boom") })
	}()
	if r := <-do(&g, nil, func(context.Context) (int, error) { return 3, nil }); r != (result{3, false, nil}) {
		t.Fatalf("after a panic: %+v, want a fresh 3", r)
	}
}
