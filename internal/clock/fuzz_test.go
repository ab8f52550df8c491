package clock

import (
	"encoding/binary"
	"testing"

	"gals/internal/timing"
)

// refClock is the plain-division reference for the jitter-free edge grid:
// the same epoch rules as Clock, queried with / and % over the epoch list.
type refClock struct {
	starts, periods []timing.FS
}

func newRefClock(period timing.FS) *refClock {
	return &refClock{starts: []timing.FS{0}, periods: []timing.FS{period}}
}

func (r *refClock) index(t timing.FS) int {
	i := len(r.starts) - 1
	for i > 0 && r.starts[i] > t {
		i--
	}
	return i
}

func (r *refClock) period(t timing.FS) timing.FS { return r.periods[r.index(t)] }

func (r *refClock) edgeAtOrAfter(t timing.FS) timing.FS {
	i := r.index(t)
	s, p := r.starts[i], r.periods[i]
	if t <= s {
		return s
	}
	if m := (t - s) % p; m != 0 {
		return t + p - m
	}
	return t
}

func (r *refClock) nextEdge(t timing.FS) timing.FS { return r.edgeAtOrAfter(t + 1) }

// after counts n edges from the first edge at or after t, epoch by epoch.
func (r *refClock) after(t timing.FS, n int) timing.FS {
	tt := r.edgeAtOrAfter(t)
	i := r.index(tt)
	for i+1 < len(r.starts) {
		k := int((r.starts[i+1] - tt) / r.periods[i])
		if n <= k {
			break
		}
		n -= k
		tt = r.starts[i+1]
		i++
	}
	return tt + timing.FS(n)*r.periods[i]
}

func (r *refClock) setPeriodAt(t, period timing.FS) {
	if period == r.periods[len(r.periods)-1] {
		return
	}
	r.starts = append(r.starts, r.edgeAtOrAfter(t))
	r.periods = append(r.periods, period)
}

func refSync(prod, cons *refClock, tp timing.FS) timing.FS {
	tc := cons.edgeAtOrAfter(tp)
	fast := min(prod.period(tp), cons.period(tp))
	if float64(tc-tp) < SyncThreshold*float64(fast) {
		tc = cons.nextEdge(tc)
	}
	return tc
}

// modelPeriods are the periods the simulator's clocks take: Table 1's
// adaptive and optimal D-cache frequencies, the adaptive and set-resized
// I-cache frequencies, Table 3's synchronous front ends and the issue
// queue frequencies.
func modelPeriods() []timing.FS {
	var ps []timing.FS
	for _, c := range timing.DCacheConfigs() {
		ps = append(ps, c.AdaptPeriod(), c.OptimalPeriod())
	}
	for _, c := range timing.ICacheConfigs() {
		ps = append(ps, c.AdaptPeriod(), c.SetsPeriod())
	}
	for _, s := range timing.SyncICacheSpecs() {
		ps = append(ps, timing.PeriodFS(s.MHz))
	}
	for _, s := range timing.IQSizes() {
		ps = append(ps, timing.IQPeriod(s))
	}
	return ps
}

// fuzzBytes decodes a fuzz input; reads past its end return zeros.
type fuzzBytes struct {
	b       []byte
	periods []timing.FS
}

func (in *fuzzBytes) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return v
}

func (in *fuzzBytes) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], in.b)
	in.b = in.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// period picks a model period, an odd one, a power of two or an
// arbitrary one, all at most 2^40 fs.
func (in *fuzzBytes) period() timing.FS {
	sel := in.byte()
	switch sel % 4 {
	case 0:
		return in.periods[int(sel/4)%len(in.periods)]
	case 1:
		return timing.FS(in.u64()%(1<<40)) | 1
	case 2:
		return 1 << (sel / 4 % 41)
	default:
		return 1 + timing.FS(in.u64()%(1<<40))
	}
}

// gap picks the distance to the next reconfiguration: a few femtoseconds,
// a few periods, or anything up to 2^56 fs.
func (in *fuzzBytes) gap(p timing.FS) timing.FS {
	sel := in.byte()
	switch sel % 3 {
	case 0:
		return timing.FS(sel / 3)
	case 1:
		return timing.FS(sel/3)*p + timing.FS(in.u64()%uint64(p))
	default:
		return timing.FS(in.u64() % (1 << 56))
	}
}

// cycles picks an After cycle count.
func (in *fuzzBytes) cycles() int {
	sel := in.byte()
	switch sel % 4 {
	case 0:
		return int(sel / 4 % 4)
	case 1:
		return int(sel)
	default:
		return int(in.u64() % (1 << 16))
	}
}

// FuzzClockEdges builds two jitter-free clocks from random epoch sequences
// (SetPeriodAt with model, odd, power-of-two and arbitrary periods) and
// checks EdgeAtOrAfter, NextEdge, After, OnEdge, Sync and SyncPath.Sync
// against refClock at query times up to 2^60 fs: around every epoch
// boundary, inside every epoch, on the edges of every epoch's grid and at
// random, both while the epochs are being added and once they are all in
// place. A jittered clock that takes every reconfiguration must never
// report OnEdge, and its first edge at or after t and next edge after t
// must be at or after and after t.
func FuzzClockEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 3, 0, 8, 1, 1, 12})
	periods := modelPeriods()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkClockEdges(t, &fuzzBytes{b: data, periods: periods})
	})
}

// checkClockEdges runs one FuzzClockEdges input.
func checkClockEdges(t *testing.T, in *fuzzBytes) {
	var clocks [2]*Clock
	var refs [2]*refClock
	for i := range clocks {
		p := in.period()
		clocks[i] = New(Domain(i), p, 0, 0)
		refs[i] = newRefClock(p)
	}
	paths := [2]*SyncPath{NewSyncPath(clocks[0], clocks[1]), NewSyncPath(clocks[1], clocks[0])}
	jittered := New(Domain(2), refs[0].periods[0], 1, 0.01)

	check := func(tq timing.FS, n int) {
		t.Helper()
		if tq < 0 {
			tq = 0
		}
		for i, c := range clocks {
			r := refs[i]
			if got, want := c.EdgeAtOrAfter(tq), r.edgeAtOrAfter(tq); got != want {
				t.Fatalf("clock %d EdgeAtOrAfter(%d) = %d, want %d (epochs %v %v)", i, tq, got, want, r.starts, r.periods)
			}
			if got, want := c.NextEdge(tq), r.nextEdge(tq); got != want {
				t.Fatalf("clock %d NextEdge(%d) = %d, want %d (epochs %v %v)", i, tq, got, want, r.starts, r.periods)
			}
			if got, want := c.After(tq, n), r.after(tq, n); got != want {
				t.Fatalf("clock %d After(%d, %d) = %d, want %d (epochs %v %v)", i, tq, n, got, want, r.starts, r.periods)
			}
			if got, want := c.Period(tq), r.period(tq); got != want {
				t.Fatalf("clock %d Period(%d) = %d, want %d", i, tq, got, want)
			}
			// OnEdge holds exactly on the final epoch's grid, where the
			// inline sums of the timing model's call sites must agree
			// with After and NextEdge.
			k := len(r.starts) - 1
			s, p := r.starts[k], r.periods[k]
			onEdge := tq >= s && (tq-s)%p == 0
			if got := c.OnEdge(tq); got != onEdge {
				t.Fatalf("clock %d OnEdge(%d) = %v, want %v (epochs %v %v)", i, tq, got, onEdge, r.starts, r.periods)
			}
			if onEdge {
				if got, want := tq+timing.FS(n)*c.CurrentPeriod(), c.After(tq, n); got != want {
					t.Fatalf("clock %d on edge %d: t+%d*period = %d, After = %d", i, tq, n, got, want)
				}
				if got, want := tq+c.CurrentPeriod(), c.NextEdge(tq); got != want {
					t.Fatalf("clock %d on edge %d: t+period = %d, NextEdge = %d", i, tq, got, want)
				}
			}
			other := 1 - i
			want := refSync(refs[i], refs[other], tq)
			if got := Sync(c, clocks[other], tq); got != want {
				t.Fatalf("Sync(%d -> %d, %d) = %d, want %d", i, other, tq, got, want)
			}
			if got := paths[i].Sync(tq); got != want {
				t.Fatalf("SyncPath(%d -> %d).Sync(%d) = %d, want %d", i, other, tq, got, want)
			}
		}
		if jittered.OnEdge(tq) {
			t.Fatalf("jittered clock OnEdge(%d) = true", tq)
		}
		if got := jittered.EdgeAtOrAfter(tq); got < tq {
			t.Fatalf("jittered clock EdgeAtOrAfter(%d) = %d (epochs %v)", tq, got, jittered.epochs)
		}
		if got := jittered.NextEdge(tq); got <= tq {
			t.Fatalf("jittered clock NextEdge(%d) = %d (epochs %v)", tq, got, jittered.epochs)
		}
	}
	probe := func(r *refClock, k int) {
		s, p := r.starts[k], r.periods[k]
		check(s-1, in.cycles())
		check(s, in.cycles())
		check(s+1, in.cycles())
		check(s+timing.FS(in.u64()%uint64(p)), in.cycles())
		// Edges of the epoch's own grid, where every query answers from
		// its on-grid test when the epoch is the final one: the first edge
		// after s and the last one before the next epoch (or a thousand
		// periods on). Then the last edge of the previous epoch's grid
		// before s. These probes read no input, so a corpus entry keeps
		// decoding to the same epochs.
		check(s+p, 1)
		last := s + 1000*p
		if k+1 < len(r.starts) {
			last = s + (r.starts[k+1]-1-s)/p*p
		}
		check(last, 3)
		if k > 0 {
			ps, pp := r.starts[k-1], r.periods[k-1]
			if s > ps {
				check(ps+(s-1-ps)/pp*pp, 2)
			}
		}
	}

	var at timing.FS
	for range in.byte() % 8 {
		i := int(in.byte() % 2)
		at += in.gap(refs[i].periods[len(refs[i].periods)-1])
		p := in.period()
		clocks[i].SetPeriodAt(at, p)
		refs[i].setPeriodAt(at, p)
		jittered.SetPeriodAt(at, p)
		probe(refs[i], len(refs[i].starts)-1)
		check(timing.FS(in.u64()%(1<<60)), in.cycles())
	}
	for i, r := range refs {
		if len(clocks[i].epochs) != len(r.starts) {
			t.Fatalf("clock %d has %d epochs, reference %d", i, len(clocks[i].epochs), len(r.starts))
		}
		for k := range r.starts {
			probe(r, k)
		}
	}
	for len(in.b) > 0 {
		check(timing.FS(in.u64()%(1<<60)), in.cycles())
	}
}
