package service

import (
	"context"
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
