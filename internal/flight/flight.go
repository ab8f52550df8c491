// Package flight computes a value at most once per key among concurrent
// callers and keeps successful results until they are forgotten. It is the
// one "compute once per key" primitive behind galsd's request dedup, the
// suite memo, the trace pools, the recording store and the policy-artifact
// memo.
//
// The contract of Group.Do:
//   - a caller whose key is being computed waits under its own context and
//     returns its own ctx.Err() when that context ends;
//   - a successful result is shared with every waiter and kept until
//     Forget or Reset;
//   - a computation that failed because its runner's context ended is
//     forgotten, and each waiter whose context is still live runs its own
//     fn instead of inheriting someone else's cancellation;
//   - any other error is shared with the waiters already joined and never
//     kept, so the next caller computes afresh;
//   - a nil context never cancels, and fn receives it as given.
package flight

import (
	"context"
	"errors"
	"sync"
)

// errPanicked is what a computation's waiters get when its fn panicked: the
// panic itself propagates in the runner's goroutine only.
var errPanicked = errors.New("flight: computation panicked")

// Group is a set of keyed computations. The zero Group is ready to use; a
// Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

type call[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
	// abandoned marks a failure caused by the runner's context ending:
	// waiters take over instead of sharing the error.
	abandoned bool
}

// Do returns the value for key, running fn to compute it unless a kept
// result or an in-flight computation for key already exists. shared is true
// when the value (or error) came from another caller's fn.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.m[key]
		if !ok {
			if g.m == nil {
				g.m = make(map[K]*call[V])
			}
			c = &call[V]{done: make(chan struct{})}
			g.m[key] = c
			g.mu.Unlock()
			g.run(ctx, key, c, fn)
			return c.val, false, c.err
		}
		g.mu.Unlock()
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-c.done:
		case <-cancelled:
			return v, true, ctx.Err()
		}
		if !c.abandoned {
			return c.val, true, c.err
		}
		if ctx != nil && ctx.Err() != nil {
			return v, true, ctx.Err()
		}
	}
}

// run executes fn as c's runner and settles c. A failed call leaves the
// group (unless Forget or Reset already dropped it), so it is never kept.
func (g *Group[K, V]) run(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	c.err = errPanicked
	defer func() {
		g.mu.Lock()
		if c.err != nil && g.m[key] == c {
			delete(g.m, key)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
	c.abandoned = c.err != nil && ctx != nil && ctx.Err() != nil
}

// Peek returns key's kept result without computing or waiting: ok is false
// while the key is absent, in flight or failed.
func (g *Group[K, V]) Peek(key K) (v V, ok bool) {
	g.mu.Lock()
	c := g.m[key]
	g.mu.Unlock()
	if c == nil {
		return v, false
	}
	select {
	case <-c.done:
		return c.val, c.err == nil
	default:
		return v, false
	}
}

// Forget drops key: the next Do computes afresh. A computation already in
// flight still delivers to the callers that joined it, but is not kept.
func (g *Group[K, V]) Forget(key K) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
}

// Reset forgets every key and returns the results that were kept, so the
// caller can release what they hold. In-flight computations are forgotten
// as by Forget.
func (g *Group[K, V]) Reset() []V {
	g.mu.Lock()
	m := g.m
	g.m = nil
	g.mu.Unlock()
	var kept []V
	for _, c := range m {
		select {
		case <-c.done:
			if c.err == nil {
				kept = append(kept, c.val)
			}
		default:
		}
	}
	return kept
}

// Len returns the number of keys held: kept results and computations in
// flight.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
