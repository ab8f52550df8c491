package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gals/internal/timing"
)

// scanTake is the reference for fuPool.take: a plain first-smallest-index
// scan over unit availability.
func scanTake(avail []timing.FS, t timing.FS) (int, timing.FS) {
	best := 0
	for i := range avail {
		if avail[i] < avail[best] {
			best = i
		}
	}
	start := t
	if avail[best] > start {
		start = avail[best]
	}
	return best, start
}

// TestFUPoolTakeMatchesScan pins take to the reference scan: the same unit,
// the same start time and the same availability of every unit after each
// booking, over seeded random request sequences whose times go backwards
// as well as forwards and whose availability times tie often (a coarse
// grid of times and occupancies).
func TestFUPoolTakeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 4, 8} {
		for seq := 0; seq < 20; seq++ {
			p := newFUPool(n)
			ref := make([]timing.FS, n)
			var base timing.FS
			for i := 0; i < 200; i++ {
				base += timing.FS(rng.Intn(3)) * 10
				at := max(0, base+timing.FS(rng.Intn(8)-4)*10)
				occ := timing.FS(1+rng.Intn(3)) * 10
				gu, gs := p.take(at)
				wu, ws := scanTake(ref, at)
				if gu != wu || gs != ws {
					t.Fatalf("n=%d seq %d step %d: take(%d) = unit %d start %d, scan unit %d start %d",
						n, seq, i, at, gu, gs, wu, ws)
				}
				p.avail[gu] = gs + occ
				ref[wu] = ws + occ
				for u := range ref {
					if p.avail[u] != ref[u] {
						t.Fatalf("n=%d seq %d step %d: unit %d avail %d, scan %d", n, seq, i, u, p.avail[u], ref[u])
					}
				}
			}
		}
	}
}

var sinkFS timing.FS

// BenchmarkFUPoolAcquire times one take-and-book in a dependent chain at
// the mul/div (1 unit) and ALU (4 units) pool widths: each request is
// ready when the previous one started, and a seeded mix of occupancies
// (mostly pipelined, some unpipelined) makes the unit that frees first
// vary. "scan" runs the branching reference scan on the same requests.
func BenchmarkFUPoolAcquire(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	occ := make([]timing.FS, 1024)
	for i := range occ {
		occ[i] = 1
		if rng.Intn(4) == 0 {
			occ[i] = timing.FS(2 + rng.Intn(12))
		}
	}
	for _, width := range []int{IntMulDivs, IntALUs} {
		b.Run(fmt.Sprintf("take/units=%d", width), func(b *testing.B) {
			p := newFUPool(width)
			var t timing.FS
			for i := 0; i < b.N; i++ {
				u, start := p.take(t)
				p.avail[u] = start + occ[i&1023]
				t = start
			}
			sinkFS = t
		})
		b.Run(fmt.Sprintf("scan/units=%d", width), func(b *testing.B) {
			avail := make([]timing.FS, width)
			var t timing.FS
			for i := 0; i < b.N; i++ {
				u, start := scanTake(avail, t)
				avail[u] = start + occ[i&1023]
				t = start
			}
			sinkFS = t
		})
	}
}
