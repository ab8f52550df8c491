package clock

import (
	"testing"

	"gals/internal/timing"
)

// edgeSink keeps a benchmark's final edge alive.
var edgeSink timing.FS

// BenchmarkClockEdge times the jitter-free edge queries the timing model
// makes several times per simulated instruction. Each query's input
// depends on the previous result, so ns/op is a query's latency.
//
//   - on-grid: After(t, 1) from an edge, as most queries of a synchronous
//     run are;
//   - inline-on-grid: the same query in the timing model's call-site form,
//     an inlined Grid test and t plus its period, with After only as the
//     fallback;
//   - off-grid: EdgeAtOrAfter from between two edges;
//   - pre-lock-epoch: After from between two edges of the locking epoch,
//     as a Phase-Adaptive machine queries between a reconfiguration
//     decision and its PLL lock;
//   - inline-locking-epoch: the call-site form from an edge of the
//     locking epoch's grid;
//   - SyncPath.Sync: a cross-domain transfer between two final epochs;
//   - SyncPath.Sync-locking-epoch: the same transfer while both clocks'
//     PLLs lock.
func BenchmarkClockEdge(b *testing.B) {
	fe := timing.PeriodFS(1770)
	b.Run("on-grid", func(b *testing.B) {
		c := New(FrontEnd, fe, 1, 0)
		t := timing.FS(0)
		for b.Loop() {
			t = c.After(t, 1)
		}
	})
	b.Run("inline-on-grid", func(b *testing.B) {
		c := New(FrontEnd, fe, 1, 0)
		t := timing.FS(0)
		// A b.Loop body keeps its calls out of line, so this loop counts
		// b.N itself and keeps its result in edgeSink.
		for range b.N {
			if p, ok := c.Grid(t, 1); ok {
				t += p
			} else {
				t = c.After(t, 1)
			}
		}
		edgeSink = t
	})
	b.Run("off-grid", func(b *testing.B) {
		c := New(FrontEnd, fe, 1, 0)
		t := timing.FS(0)
		for b.Loop() {
			t = c.EdgeAtOrAfter(t + 7)
		}
	})
	b.Run("pre-lock-epoch", func(b *testing.B) {
		c := New(LoadStore, timing.PeriodFS(1590), 1, 0)
		// The new period locks far beyond any time the loop reaches.
		c.SetPeriodAt(1<<60, timing.PeriodFS(1150))
		t := timing.FS(0)
		for b.Loop() {
			t = c.After(t+7, 1)
		}
	})
	b.Run("inline-locking-epoch", func(b *testing.B) {
		c := New(LoadStore, timing.PeriodFS(1590), 1, 0)
		c.SetPeriodAt(1<<60, timing.PeriodFS(1150))
		t := timing.FS(0)
		for range b.N {
			if p, ok := c.Grid(t, 1); ok {
				t += p
			} else {
				t = c.After(t, 1)
			}
		}
		edgeSink = t
	})
	b.Run("SyncPath.Sync", func(b *testing.B) {
		p := NewSyncPath(New(Integer, timing.PeriodFS(1449), 1, 0), New(LoadStore, timing.PeriodFS(1790), 1, 0))
		t := timing.FS(0)
		for b.Loop() {
			t = p.Sync(t + 7)
		}
	})
	b.Run("SyncPath.Sync-locking-epoch", func(b *testing.B) {
		prod, cons := New(Integer, timing.PeriodFS(1449), 1, 0), New(LoadStore, timing.PeriodFS(1790), 1, 0)
		prod.SetPeriodAt(1<<60, timing.PeriodFS(1200))
		cons.SetPeriodAt(1<<60, timing.PeriodFS(1150))
		p := NewSyncPath(prod, cons)
		t := timing.FS(0)
		for b.Loop() {
			t = p.Sync(t + 7)
		}
	})
}
