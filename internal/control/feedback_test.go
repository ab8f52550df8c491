package control

import (
	"strings"
	"testing"

	"gals/internal/cache"
	"gals/internal/queue"
	"gals/internal/timing"
)

func TestFeedbackParamBounds(t *testing.T) {
	for _, ok := range []string{
		"", "kp=2,ki=0.5", "interval=7500,clamp=10",
		"cache_setpoint=0.2,ilp_setpoint=8,deadband=1",
	} {
		if err := ValidateSelection("feedback", ok, ""); err != nil {
			t.Errorf("ValidateSelection(feedback, %q, \"\") = %v", ok, err)
		}
	}
	for _, bad := range []string{
		"kp=200",           // gain above the stability bound
		"ki=101",           // gain above the stability bound
		"kp=-1",            // negative (generic rule)
		"clamp=1000",       // clamp above bound
		"deadband=11",      // deadband above bound
		"cache_setpoint=0", // setpoint must be positive (relative errors)
		"ilp_setpoint=0",   // setpoint must be positive
		"ilp_setpoint=65",  // above the largest window
		"interval=2e9",     // above bound
		"gain=1",           // unknown parameter
	} {
		if err := ValidateSelection("feedback", bad, ""); err == nil {
			t.Errorf("ValidateSelection(feedback, %q, \"\") accepted", bad)
		}
	}
}

// feStats builds front-end accounting statistics with the given hit counts
// per MRU position and directory misses.
func feStats(pos [4]uint64, misses uint64) cache.Stats {
	s := cache.Stats{PosHits: pos[:], DirMisses: misses}
	for _, n := range pos {
		s.Accesses += n
	}
	s.Accesses += misses
	return s
}

func newFeedback(t *testing.T, params string) Controller {
	t.Helper()
	c, err := New("feedback", params, Init{IntIQ: timing.IQ16, FPIQ: timing.IQ16})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFeedbackUpsizesOnAbsorbablePressure: an interval whose B-partition
// traffic the next size up would absorb drives the front-end loop upward.
func TestFeedbackUpsizesOnAbsorbablePressure(t *testing.T) {
	c := newFeedback(t, "kp=4")
	// Half the accesses hit MRU position 1 — outside the 1-way A partition,
	// fully absorbed by the 2-way configuration.
	obs := CacheObs{
		ICache: feStats([4]uint64{500, 500, 0, 0}, 0),
		ICfg:   timing.ICache16K1W, DCfg: timing.DCache32K1W,
		FEPeriod: timing.PeriodFS(1000), LSPeriod: timing.PeriodFS(1000),
	}
	out := c.DecideCaches(obs, nil)
	if len(out) != 1 || out[0].Kind != ICache || out[0].Target <= 0 {
		t.Fatalf("absorbable pressure decided %v, want a front-end upsize", out)
	}
}

// TestFeedbackHoldsWhenCapacityBound: pressure that no configuration
// absorbs (pure directory misses) generates no up-force — the failure mode
// that distinguishes the marginal error signal from a naive absolute
// regulator, which would pin the cache at its largest, slowest size.
func TestFeedbackHoldsWhenCapacityBound(t *testing.T) {
	c := newFeedback(t, "kp=4")
	obs := CacheObs{
		ICache: feStats([4]uint64{500, 0, 0, 0}, 500),
		ICfg:   timing.ICache16K1W, DCfg: timing.DCache32K1W,
		FEPeriod: timing.PeriodFS(1000), LSPeriod: timing.PeriodFS(1000),
	}
	for i := 0; i < 5; i++ {
		if out := c.DecideCaches(obs, nil); len(out) != 0 {
			t.Fatalf("capacity-bound interval %d decided %v", i, out)
		}
	}
}

// TestFeedbackCadenceStretchesWhenQuiet: on-target intervals double the
// decision interval up to 8x the base; an excursion snaps it back.
func TestFeedbackCadenceStretchesWhenQuiet(t *testing.T) {
	c := newFeedback(t, "interval=1000")
	if c.CacheInterval() != 1000 {
		t.Fatalf("base interval = %d", c.CacheInterval())
	}
	quiet := CacheObs{ // A-partition hits only: zero pressure everywhere
		ICache: feStats([4]uint64{1000, 0, 0, 0}, 0),
		ICfg:   timing.ICache16K1W, DCfg: timing.DCache32K1W,
		FEPeriod: timing.PeriodFS(1000), LSPeriod: timing.PeriodFS(1000),
	}
	for i, want := range []int64{2000, 4000, 8000, 8000} {
		c.DecideCaches(quiet, nil)
		if got := c.CacheInterval(); got != want {
			t.Fatalf("after %d quiet intervals CacheInterval = %d, want %d", i+1, got, want)
		}
	}
	loud := quiet
	loud.ICache = feStats([4]uint64{0, 1000, 0, 0}, 0)
	c.DecideCaches(loud, nil)
	if got := c.CacheInterval(); got != 1000 {
		t.Fatalf("excursion left CacheInterval at %d, want the base 1000", got)
	}
}

// TestFeedbackAntiWindup: with the loop saturated at the smallest
// configuration, a long run of negative error must not wind the integral
// past the clamp — a subsequent genuine up-force must move the level within
// a few intervals, not after unwinding an unbounded backlog.
func TestFeedbackAntiWindup(t *testing.T) {
	c := newFeedback(t, "kp=1,ki=1,clamp=1")
	quiet := CacheObs{
		ICache: feStats([4]uint64{1000, 0, 0, 0}, 0),
		ICfg:   timing.ICache16K1W, DCfg: timing.DCache32K1W,
		FEPeriod: timing.PeriodFS(1000), LSPeriod: timing.PeriodFS(1000),
	}
	// Zero error at the floor: nothing accumulates, nothing decided.
	for i := 0; i < 50; i++ {
		c.DecideCaches(quiet, nil)
	}
	pressured := quiet
	pressured.ICache = feStats([4]uint64{200, 800, 0, 0}, 0)
	out := c.DecideCaches(pressured, nil)
	if len(out) != 1 || out[0].Kind != ICache {
		t.Fatalf("post-saturation pressure decided %v, want an immediate upsize", out)
	}
}

// TestFeedbackIQLoopFollowsILP: sustained ILP far above the setpoint grows
// the integer queue; the FP queue (no FP instructions) stays put.
func TestFeedbackIQLoopFollowsILP(t *testing.T) {
	c := newFeedback(t, "kp=2,ilp_setpoint=2")
	var samples [4]queue.Sample
	for i, n := range []int{16, 32, 48, 64} {
		samples[i] = queue.Sample{N: n, M: 2, IntCount: n, FPCount: 0}
	}
	obs := IQObs{Samples: samples, IntIQ: timing.IQ16, FPIQ: timing.IQ16}
	out := c.DecideIQs(obs, nil)
	if len(out) != 1 || out[0].Kind != IntIQ || out[0].Target <= int(timing.IQ16) {
		t.Fatalf("high-ILP interval decided %v, want one integer-queue upsize", out)
	}
}

// TestFeedbackRegistered pins the registry entry: parameters listed,
// no blob.
func TestFeedbackRegistered(t *testing.T) {
	p, ok := Lookup("feedback")
	if !ok {
		t.Fatal("feedback not registered")
	}
	in := p.Info()
	if in.RequiresBlob {
		t.Error("feedback should not require a blob artifact")
	}
	if len(in.Params) != 7 {
		t.Errorf("feedback lists %d params, want 7", len(in.Params))
	}
	if err := ValidateSelection("feedback", "", "{}"); err == nil ||
		!strings.Contains(err.Error(), "takes no blob") {
		t.Errorf("feedback accepted a blob artifact: %v", err)
	}
}
