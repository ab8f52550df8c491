package clock

import (
	"testing"
	"testing/quick"

	"gals/internal/timing"
)

func TestEdgeBasics(t *testing.T) {
	c := New(Integer, 1000, 1, 0) // 1ps period for easy arithmetic
	if got := c.EdgeAtOrAfter(0); got != 0 {
		t.Errorf("EdgeAtOrAfter(0) = %d, want 0", got)
	}
	if got := c.EdgeAtOrAfter(1); got != 1000 {
		t.Errorf("EdgeAtOrAfter(1) = %d, want 1000", got)
	}
	if got := c.EdgeAtOrAfter(1000); got != 1000 {
		t.Errorf("EdgeAtOrAfter(1000) = %d, want 1000", got)
	}
	if got := c.NextEdge(1000); got != 2000 {
		t.Errorf("NextEdge(1000) = %d, want 2000", got)
	}
	if got := c.After(0, 5); got != 5000 {
		t.Errorf("After(0,5) = %d, want 5000", got)
	}
	if got := c.After(999, 2); got != 3000 {
		t.Errorf("After(999,2) = %d, want 3000 (first edge 1000, +2 cycles)", got)
	}
}

func TestEdgeAtOrAfterProperty(t *testing.T) {
	c := New(FrontEnd, timing.PeriodFS(1770), 7, 0)
	f := func(raw uint32) bool {
		tt := timing.FS(raw)
		e := c.EdgeAtOrAfter(tt)
		return e >= tt && c.EdgeAtOrAfter(e) == e && c.NextEdge(e) > e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	const period = 1_000_000
	a := New(Integer, period, 42, 0.01)
	b := New(Integer, period, 42, 0.01)
	prev := timing.FS(-1)
	tt := timing.FS(0)
	for i := 0; i < 1000; i++ {
		ea, eb := a.NextEdge(tt), b.NextEdge(tt)
		if ea != eb {
			t.Fatalf("same-seed clocks disagree: %d vs %d", ea, eb)
		}
		// Jitter must stay within 1% of the nominal grid.
		nominal := (ea + period/2) / period * period
		if d := ea - nominal; d > period/100 || d < -period/100 {
			t.Fatalf("edge %d deviates %d fs from nominal (limit %d)", ea, d, period/100)
		}
		if ea <= prev {
			t.Fatalf("edges not strictly monotone: %d after %d", ea, prev)
		}
		prev, tt = ea, ea
	}
}

// TestJitteredEpochStartIsAnEdge: an epoch's start is already a jittered
// edge of the previous epoch, so it is the first edge at or after itself,
// and the next edge after the instant before it. Jittering the start a
// second time moved that edge before its argument for most seeds.
func TestJitteredEpochStartIsAnEdge(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		c := New(Integer, 1_000_000, seed, 0.02)
		c.SetPeriodAt(5_000_001, 2_000_000)
		start := c.final.start
		if got := c.EdgeAtOrAfter(start); got != start {
			t.Errorf("seed %d: EdgeAtOrAfter(epoch start %d) = %d", seed, start, got)
		}
		if got := c.NextEdge(start - 1); got != start {
			t.Errorf("seed %d: NextEdge(%d) = %d, want the epoch start %d", seed, start-1, got, start)
		}
		if got := c.EdgeAtOrAfter(0); got != 0 {
			t.Errorf("seed %d: the first edge at or after 0 is %d", seed, got)
		}
	}
}

func TestSetPeriodAt(t *testing.T) {
	c := New(LoadStore, 1000, 3, 0)
	c.SetPeriodAt(10_500, 2000)
	// Before the change: old grid.
	if got := c.EdgeAtOrAfter(5000); got != 5000 {
		t.Errorf("pre-change edge = %d, want 5000", got)
	}
	// The new epoch starts at the first old edge >= 10500, i.e. 11000.
	if got := c.EdgeAtOrAfter(11_000); got != 11_000 {
		t.Errorf("boundary edge = %d, want 11000", got)
	}
	if got := c.NextEdge(11_000); got != 13_000 {
		t.Errorf("post-change edge = %d, want 13000", got)
	}
	if got := c.CurrentPeriod(); got != 2000 {
		t.Errorf("CurrentPeriod = %d, want 2000", got)
	}
	if got := c.Period(5000); got != 1000 {
		t.Errorf("Period(5000) = %d, want 1000", got)
	}
	// After spans the boundary correctly: edge at 10000, then 11000, 13000.
	if got := c.After(10_000, 2); got != 13_000 {
		t.Errorf("After(10000,2) = %d, want 13000", got)
	}
}

func TestSetPeriodNoOpOnSame(t *testing.T) {
	c := New(Integer, 1000, 0, 0)
	c.SetPeriodAt(5000, 1000)
	if got := c.NextEdge(5000); got != 6000 {
		t.Errorf("NextEdge after no-op change = %d, want 6000", got)
	}
}

func TestSyncSameDomainFree(t *testing.T) {
	c := New(Integer, 1000, 0, 0)
	if got := Sync(c, c, 12345); got != 12345 {
		t.Errorf("same-domain Sync = %d, want 12345", got)
	}
	if got := Align(c, c, 12345); got != 12345 {
		t.Errorf("same-domain Align = %d, want 12345", got)
	}
}

func TestSyncThresholdExtraCycle(t *testing.T) {
	prod := New(Integer, 1000, 0, 0)
	cons := New(LoadStore, 1000, 0, 0)
	// Producer edge at 10000 coincides with a consumer edge: distance 0 is
	// within 30% of the period, so the consumer pays one extra cycle.
	if got := Sync(prod, cons, 10_000); got != 11_000 {
		t.Errorf("coincident-edge Sync = %d, want 11000 (extra cycle)", got)
	}
	// 10500 is 500fs (50%) before the next consumer edge: safe, no extra.
	if got := Sync(prod, cons, 10_500); got != 11_000 {
		t.Errorf("mid-period Sync = %d, want 11000", got)
	}
	// 10800 is 200fs (20%) before the next edge: within threshold.
	if got := Sync(prod, cons, 10_800); got != 12_000 {
		t.Errorf("near-edge Sync = %d, want 12000 (extra cycle)", got)
	}
	// Align never pays the metastability cycle.
	if got := Align(prod, cons, 10_800); got != 11_000 {
		t.Errorf("near-edge Align = %d, want 11000", got)
	}
}

func TestSyncNeverEarly(t *testing.T) {
	prod := New(Integer, timing.PeriodFS(1449), 1, 0)
	cons := New(LoadStore, timing.PeriodFS(1790), 2, 0)
	f := func(raw uint32) bool {
		tp := timing.FS(raw)
		tc := Sync(prod, cons, tp)
		// Result is a consumer edge at or after tp, at most 2 cycles out.
		return tc >= tp && tc <= cons.EdgeAtOrAfter(tp)+cons.CurrentPeriod()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPLLLockDistribution(t *testing.T) {
	p := NewPLL(7)
	var sum timing.FS
	n := 2000
	for i := 0; i < n; i++ {
		d := p.LockTime()
		if d < PLLLockMin || d > PLLLockMax {
			t.Fatalf("lock time %d outside [%d, %d]", d, PLLLockMin, PLLLockMax)
		}
		sum += d
	}
	mean := float64(sum) / float64(n)
	if mean < 0.9*float64(PLLLockMean) || mean > 1.1*float64(PLLLockMean) {
		t.Errorf("mean lock %.0f fs, want ~%d", mean, PLLLockMean)
	}
	// Determinism.
	a, b := NewPLL(99), NewPLL(99)
	for i := 0; i < 10; i++ {
		if a.LockTime() != b.LockTime() {
			t.Fatal("same-seed PLLs disagree")
		}
	}
}

// multiEpoch builds a jitter-free clock with several reconfigurations, so
// queries exercise both the cached-final-epoch fast path and the historical
// scan.
func multiEpoch(jitterFrac float64) *Clock {
	c := New(LoadStore, timing.PeriodFS(1790), 11, jitterFrac)
	c.SetPeriodAt(40_000_000, timing.PeriodFS(1024))
	c.SetPeriodAt(90_000_000, timing.PeriodFS(1560))
	c.SetPeriodAt(200_000_000, timing.PeriodFS(890))
	return c
}

// deepTime spreads a sample over [0, 2^50) fs.
func deepTime(raw uint32, low uint16) timing.FS {
	return timing.FS(raw)<<18 | timing.FS(low)
}

// TestFastSlowPathEquivalence proves the jitter-free integer fast paths of
// EdgeAtOrAfter/NextEdge/After agree with the generic probe-loop slow path
// on every query, across epochs.
func TestFastSlowPathEquivalence(t *testing.T) {
	c := multiEpoch(0)
	check := func(tt timing.FS, n int) bool {
		if c.EdgeAtOrAfter(tt) != c.edgeAtOrAfterSlow(tt) {
			t.Logf("EdgeAtOrAfter(%d): fast %d, slow %d", tt, c.EdgeAtOrAfter(tt), c.edgeAtOrAfterSlow(tt))
			return false
		}
		if c.NextEdge(tt) != c.edgeAtOrAfterSlow(tt+1) {
			return false
		}
		if c.After(tt, n) != c.afterSlow(tt, n) {
			t.Logf("After(%d, %d): fast %d, slow %d", tt, n, c.After(tt, n), c.afterSlow(tt, n))
			return false
		}
		return true
	}
	f := func(raw uint32, cycles uint16) bool {
		n := int(cycles % 600) // enough cycles to cross several epochs
		// Concentrate on the historical epochs and their boundaries
		// (0..250M fs), and also sample deep into the final epoch up to
		// 2^50 fs (a 1M-instruction run reaches ~1e12 fs), both between
		// edges and on one.
		deep := deepTime(raw, cycles)
		return check(timing.FS(raw%250_000_000), n) && check(timing.FS(raw)*3, n) &&
			check(deep, n) && check(c.edgeAtOrAfterSlow(deep), n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Pin down the boundaries themselves.
	for _, b := range []timing.FS{0, 39_999_999, 40_000_000, 40_000_001, 89_999_999, 90_000_000, 200_000_000, 200_000_001} {
		for _, n := range []int{0, 1, 2, 1000, 1_000_000} {
			if !check(b, n) {
				t.Fatalf("fast/slow divergence at boundary t=%d n=%d", b, n)
			}
		}
	}
}

// TestVanishingJitterEquivalence drives the jittered path with a jitter
// fraction small enough that every offset truncates to zero femtoseconds:
// the jittered edges must coincide with the jitter-free fast path's
// (fast path vs. jittered path at jitterFrac -> 0).
func TestVanishingJitterEquivalence(t *testing.T) {
	fast := multiEpoch(0)
	slow := multiEpoch(1e-12) // jitter < 1 fs at any modeled period
	f := func(raw uint32, cycles uint8) bool {
		n := int(cycles % 40)
		deep := deepTime(raw, uint16(cycles))
		for _, tt := range []timing.FS{timing.FS(raw % 250_000_000), timing.FS(raw) * 3, deep, slow.EdgeAtOrAfter(deep)} {
			if fast.EdgeAtOrAfter(tt) != slow.EdgeAtOrAfter(tt) ||
				fast.NextEdge(tt) != slow.NextEdge(tt) ||
				fast.After(tt, n) != slow.After(tt, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFinalEpochCacheCoherent checks the cached final epoch tracks
// SetPeriodAt and never diverges from the epoch slice.
func TestFinalEpochCacheCoherent(t *testing.T) {
	c := multiEpoch(0)
	last := c.epochs[len(c.epochs)-1]
	if c.final != last {
		t.Fatalf("final-epoch cache %+v != last epoch %+v", c.final, last)
	}
	if got := c.CurrentPeriod(); got != last.period {
		t.Errorf("CurrentPeriod = %d, want %d", got, last.period)
	}
	// A no-op period change must not disturb the cache.
	c.SetPeriodAt(300_000_000, last.period)
	if c.final != last {
		t.Error("no-op SetPeriodAt disturbed the final-epoch cache")
	}
}

func TestDomainString(t *testing.T) {
	names := map[Domain]string{
		FrontEnd: "front-end", Integer: "integer", FloatingPoint: "floating-point",
		LoadStore: "load/store", Memory: "memory",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("Domain(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}

func TestNewClockValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(Integer, 0, 0, 0) },
		func() { New(Integer, 1000, 0, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}
