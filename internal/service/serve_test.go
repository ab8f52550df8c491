package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestServePanicReleasesFlightKey: a compute that panics fails its own
// request with a "job panicked" error and releases its flight key, so the
// next request with that key runs its own compute instead of hanging on,
// or joining, the dead flight.
func TestServePanicReleasesFlightKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, shared, err := serve(s, ctx, 0, "key", func(context.Context) (int, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "service: job panicked: boom") || shared {
		t.Fatalf("panicking compute: shared %v, err %v; want an unshared job-panicked error", shared, err)
	}
	got, shared, err := serve(s, ctx, 0, "key", func(context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || got != 7 || shared {
		t.Fatalf("request after the panic: %d, shared %v, err %v; want its own result 7", got, shared, err)
	}
	if n := s.Stats().DedupHits; n != 0 {
		t.Fatalf("dedup hits %d, want 0", n)
	}
}

// TestCancelledLeaderHandsFlightToLiveJoiner: a request that joined an
// identical in-flight request, whose own context is still live, does not
// fail with the context error of the request it joined when that one is
// cancelled: it runs its own compute and succeeds.
func TestCancelledLeaderHandsFlightToLiveJoiner(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	running := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := serve(s, leaderCtx, 0, "key", func(ctx context.Context) (int, error) {
			close(running)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		leaderErr <- err
	}()
	<-running

	type result struct {
		v      int
		shared bool
		err    error
	}
	joiner := make(chan result, 1)
	go func() {
		v, shared, err := serve(s, context.Background(), 0, "key", func(context.Context) (int, error) {
			return 7, nil
		})
		joiner <- result{v, shared, err}
	}()
	// Nothing outside the flight group marks the joiner as parked on the
	// leader's flight; this pause only lets it get there, so the test
	// exercises the takeover. A joiner that has not arrived by the cancel
	// leads on its own and passes either way.
	time.Sleep(50 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader = %v, want context.Canceled", err)
	}
	if r := <-joiner; r.err != nil || r.v != 7 || r.shared {
		t.Fatalf("live joiner = %d, shared %v, err %v; want its own result 7", r.v, r.shared, r.err)
	}
}
