package clock

import (
	"math"
	"testing"

	"gals/internal/timing"
)

// TestSyncPathMatchesSync: the memoized per-pair path must agree with the
// stateless Sync at every time, across reconfigurations of either clock,
// with and without jitter — including queries into historical epochs.
func TestSyncPathMatchesSync(t *testing.T) {
	for _, jitter := range []float64{0, 0.01} {
		prod := New(Integer, 700_000, 7, jitter)
		cons := New(FrontEnd, 1_100_000, 7, jitter)
		fwd := NewSyncPath(prod, cons)
		rev := NewSyncPath(cons, prod)

		check := func(tp timing.FS) {
			t.Helper()
			if got, want := fwd.Sync(tp), Sync(prod, cons, tp); got != want {
				t.Fatalf("jitter=%v fwd.Sync(%d) = %d, want %d", jitter, tp, got, want)
			}
			if got, want := rev.Sync(tp), Sync(cons, prod, tp); got != want {
				t.Fatalf("jitter=%v rev.Sync(%d) = %d, want %d", jitter, tp, got, want)
			}
		}

		// Dense probe over the initial epochs.
		for tp := timing.FS(0); tp < 40_000_000; tp += 13_337 {
			check(tp)
		}

		// Reconfigure the producer, then the consumer, re-probing around
		// each boundary (historical-epoch queries included: SetPeriodAt at
		// 50ms leaves every earlier time in a historical epoch).
		prod.SetPeriodAt(50_000_000, 900_000)
		for tp := timing.FS(49_000_000); tp < 60_000_000; tp += 7_919 {
			check(tp)
		}
		cons.SetPeriodAt(70_000_000, 600_000)
		for tp := timing.FS(69_000_000); tp < 90_000_000; tp += 7_919 {
			check(tp)
		}
		// Queries far behind both final epochs still agree.
		for tp := timing.FS(0); tp < 2_000_000; tp += 111_111 {
			check(tp)
		}
	}
}

// TestSyncPathSameClockIdentity: same-domain paths are free, as with Sync.
func TestSyncPathSameClockIdentity(t *testing.T) {
	c := New(FrontEnd, 1_000_000, 1, 0)
	p := NewSyncPath(c, c)
	for _, tp := range []timing.FS{0, 1, 999_999, 1_000_000, 123_456_789} {
		if got := p.Sync(tp); got != tp {
			t.Fatalf("same-clock Sync(%d) = %d, want identity", tp, got)
		}
	}
}

// TestSyncPathThresholdRefresh: after a reconfiguration changes which clock
// is faster, the cached threshold must be recomputed, not reused.
func TestSyncPathThresholdRefresh(t *testing.T) {
	prod := New(Integer, 500_000, 3, 0)
	cons := New(FrontEnd, 2_000_000, 3, 0)
	p := NewSyncPath(prod, cons)
	p.Sync(1_000_000) // populate the cache with min-period 500_000

	// Slow the producer far past the consumer: min period becomes the
	// consumer's, and the threshold grows accordingly.
	prod.SetPeriodAt(10_000_000, 8_000_000)
	probe := prod.EdgeAtOrAfter(20_000_000)
	if got, want := p.Sync(probe), Sync(prod, cons, probe); got != want {
		t.Fatalf("after refresh Sync(%d) = %d, want %d", probe, got, want)
	}
	if want := timing.FS(math.Ceil(SyncThreshold * float64(2_000_000))); p.thr != want {
		t.Fatalf("threshold = %v, want %v", p.thr, want)
	}
}
