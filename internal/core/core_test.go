package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gals/internal/clock"
	"gals/internal/isa"
	"gals/internal/timing"
	"gals/internal/workload"
)

const testWindow = 20_000

func bench(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %q", name)
	}
	return s
}

func phaseCfg() Config {
	cfg := DefaultAdaptive(PhaseAdaptive)
	cfg.PLLScale = 0.1
	return cfg
}

func TestWindowFloorSemantics(t *testing.T) {
	var w window
	if w.floor(4) != 0 || w.floor(windowSlots) != 0 {
		t.Error("empty window floor not 0")
	}
	for i := 1; i <= 6; i++ {
		w.push(timing.FS(i * 100))
	}
	// 4 pushes ago (of 6) is value 300.
	if got := w.floor(4); got != 300 {
		t.Errorf("floor(4) = %d, want 300", got)
	}
	if got := w.floor(2); got != 500 {
		t.Errorf("floor(2) = %d, want 500", got)
	}
	if got := w.floor(7); got != 0 {
		t.Errorf("floor(7) after 6 pushes = %d, want 0", got)
	}
}

func TestWindowFloorProperty(t *testing.T) {
	// floor(n) equals the value pushed n pushes ago, for any push pattern
	// and any depth the ring holds.
	f := func(vals []int16, n uint8) bool {
		depth := int(n) + 1
		var w window
		var history []timing.FS
		for _, v := range vals {
			tv := timing.FS(v)
			w.push(tv)
			history = append(history, tv)
		}
		want := timing.FS(0)
		if len(history) >= depth {
			want = history[len(history)-depth]
		}
		return w.floor(depth) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// After the ring has wrapped more than twice, every depth reads the
	// right push, including the full depth, where uint8(n) is 0.
	rng := rand.New(rand.NewSource(20))
	for _, pushes := range []int{600, 767, 768, 1000} {
		var w window
		history := make([]timing.FS, pushes)
		for i := range history {
			history[i] = timing.FS(rng.Int63())
			w.push(history[i])
		}
		for n := 1; n <= windowSlots; n++ {
			if got, want := w.floor(n), history[pushes-n]; got != want {
				t.Fatalf("after %d pushes floor(%d) = %d, want %d", pushes, n, got, want)
			}
		}
	}
}

func TestFUPoolPicksEarliest(t *testing.T) {
	p := newFUPool(2)
	u1, s1 := p.take(100)
	p.avail[u1] = s1 + 50
	u2, s2 := p.take(100)
	p.avail[u2] = s2 + 50
	if s1 != 100 || s2 != 100 || u1 == u2 {
		t.Fatalf("two units should both start at 100: got unit %d at %d, unit %d at %d", u1, s1, u2, s2)
	}
	// Both busy until 150: a third op waits, on the first unit.
	if u3, s3 := p.take(100); u3 != 0 || s3 != 150 {
		t.Errorf("third op took unit %d at %d, want unit 0 at 150", u3, s3)
	}
}

// BenchmarkWindow times one push and one floor(n) read in a dependent
// chain (each push is the read's result plus one) at the ROB's retire-width
// read and the issue queues' issue-width read. Every window is the same
// 256-slot ring, so only the read depth differs; the names keep the
// structure depths (256 and 64) of earlier measurements.
func BenchmarkWindow(b *testing.B) {
	for _, c := range []struct{ depth, read int }{{ROBEntries, RetireWidth}, {int(timing.IQ64), IssueWidth}} {
		b.Run(fmt.Sprintf("depth=%d/read=%d", c.depth, c.read), func(b *testing.B) {
			var w window
			var t timing.FS
			for i := 0; i < b.N; i++ {
				t = max(t, w.floor(c.read)) + 1
				w.push(t)
			}
			sinkFS = t
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := bench(t, "gcc")
	for _, cfg := range []Config{DefaultSync(), DefaultAdaptive(ProgramAdaptive), phaseCfg()} {
		a := RunWorkload(spec, cfg, testWindow)
		b := RunWorkload(spec, cfg, testWindow)
		if a.TimeFS != b.TimeFS {
			t.Errorf("%v: nondeterministic run time: %d vs %d", cfg.Mode, a.TimeFS, b.TimeFS)
		}
		if a.Stats.Mispredicts != b.Stats.Mispredicts || a.Stats.DCacheMiss != b.Stats.DCacheMiss ||
			a.Stats.Reconfigs != b.Stats.Reconfigs || a.Stats.MemAccesses != b.Stats.MemAccesses {
			t.Errorf("%v: nondeterministic statistics", cfg.Mode)
		}
	}
}

// TestBandwidthInvariants checks the per-cycle widths without goldens: in
// every organization, fused and streamed, at most DecodeWidth instructions
// share a rename time and at most RetireWidth share a commit time, and
// neither time ever decreases. The widths are read from the fetch-queue and
// ROB windows, whose pushes carry the same times.
func TestBandwidthInvariants(t *testing.T) {
	const n = 30_000
	for _, name := range []string{"gcc", "em3d", "apsi", "mst"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := bench(t, name).Record(n)
			// The recording's first Phase-Adaptive run notes it and the
			// second builds its stream, so the third replays the stream.
			for i := 0; i < 2; i++ {
				NewMachineSource(rec.Replay(), phaseCfg()).Run(n)
			}
			machines := []struct {
				label    string
				m        *Machine
				streamed bool
			}{
				{"sync", NewMachineSource(rec.Replay(), DefaultSync()), false},
				{"program", NewMachineSource(rec.Replay(), DefaultAdaptive(ProgramAdaptive)), false},
				{"phase/fused", NewMachineSource(fused{rec.Replay()}, phaseCfg()), false},
				{"phase/stream", NewMachineSource(rec.Replay(), phaseCfg()), true},
			}
			for _, c := range machines {
				m := c.m
				m.useStream(n)
				if streamed := m.fs != nil; streamed != c.streamed {
					t.Fatalf("%s: streamed = %v, want %v", c.label, streamed, c.streamed)
				}
				rename := widthCheck{what: "renamed", width: DecodeWidth}
				commit := widthCheck{what: "committed", width: RetireWidth}
				for i := int64(0); i < n; i++ {
					m.steps(1)
					rename.next(t, c.label, i, m.lastRename)
					commit.next(t, c.label, i, m.lastCommit)
				}
			}
		})
	}
}

// widthCheck follows one in-order stage's times: they must never decrease,
// and at most width consecutive instructions may share one.
type widthCheck struct {
	what  string
	width int
	prev  timing.FS
	same  int
}

func (w *widthCheck) next(t *testing.T, label string, i int64, at timing.FS) {
	t.Helper()
	switch {
	case at < w.prev:
		t.Fatalf("%s: instruction %d %s at %d, before %d", label, i, w.what, at, w.prev)
	case at == w.prev:
		w.same++
	default:
		w.same = 1
	}
	if w.same > w.width {
		t.Fatalf("%s: %d instructions %s at %d, width %d", label, w.same, w.what, at, w.width)
	}
	w.prev = at
}

func TestRunBasicInvariants(t *testing.T) {
	spec := bench(t, "gzip")
	for _, cfg := range []Config{DefaultSync(), DefaultAdaptive(ProgramAdaptive), phaseCfg()} {
		r := RunWorkload(spec, cfg, testWindow)
		s := r.Stats
		if s.Instructions != testWindow {
			t.Fatalf("%v: committed %d, want %d", cfg.Mode, s.Instructions, testWindow)
		}
		if r.TimeFS <= 0 {
			t.Fatalf("%v: non-positive run time", cfg.Mode)
		}
		if s.Mispredicts > s.Branches {
			t.Errorf("%v: more mispredicts (%d) than branches (%d)", cfg.Mode, s.Mispredicts, s.Branches)
		}
		if s.Branches == 0 || s.Loads == 0 || s.Stores == 0 {
			t.Errorf("%v: degenerate mix %+v", cfg.Mode, s)
		}
		ipc := r.IPnsec()
		if ipc < 0.02 || ipc > 20 {
			t.Errorf("%v: implausible throughput %.3f instr/ns", cfg.Mode, ipc)
		}
		// Cache access accounting is self-consistent: every L2 access
		// comes from an L1I or L1D miss (plus write allocations).
		l2 := s.L2A + s.L2B + s.L2Miss
		if l2 > s.ICacheMiss+s.DCacheMiss {
			t.Errorf("%v: more L2 accesses (%d) than L1 misses (%d)", cfg.Mode, l2, s.ICacheMiss+s.DCacheMiss)
		}
		if s.MemAccesses != s.L2Miss {
			t.Errorf("%v: memory accesses %d != L2 misses %d", cfg.Mode, s.MemAccesses, s.L2Miss)
		}
	}
}

func TestCommitTimesMonotone(t *testing.T) {
	spec := bench(t, "art")
	m := NewMachine(spec, phaseCfg())
	prev := timing.FS(0)
	var in isa.Inst
	for i := 0; i < 5000; i++ {
		m.trace.Next(&in)
		m.step(&in)
		if m.lastCommit < prev {
			t.Fatalf("commit time went backwards at %d", i)
		}
		prev = m.lastCommit
	}
}

func TestConfigHistogramsSumToWindow(t *testing.T) {
	spec := bench(t, "apsi")
	r := RunWorkload(spec, phaseCfg(), testWindow)
	sum := func(a []int64) (s int64) {
		for _, v := range a {
			s += v
		}
		return
	}
	if got := sum(r.Stats.ICacheInstrs[:]); got != testWindow {
		t.Errorf("i-cache histogram sums to %d, want %d", got, testWindow)
	}
	if got := sum(r.Stats.DCacheInstrs[:]); got != testWindow {
		t.Errorf("d-cache histogram sums to %d, want %d", got, testWindow)
	}
	if got := sum(r.Stats.IntIQInstrs[:]); got != testWindow {
		t.Errorf("int-IQ histogram sums to %d, want %d", got, testWindow)
	}
}

func TestPhaseControllersReconfigure(t *testing.T) {
	// apsi's phase schedule must trigger D-cache reconfigurations.
	spec := bench(t, "apsi")
	cfg := phaseCfg()
	cfg.RecordTrace = true
	r := RunWorkload(spec, cfg, 60_000)
	if r.Stats.Reconfigs == 0 {
		t.Fatal("no reconfigurations on a phased workload")
	}
	kinds := map[string]int{}
	for _, e := range r.Stats.ReconfigEvents {
		kinds[e.Kind]++
		if e.Instr <= 0 || e.Instr > 60_000 {
			t.Errorf("event at instruction %d outside window", e.Instr)
		}
	}
	if kinds["dcache"] == 0 {
		t.Error("apsi produced no d-cache reconfigurations (paper Figure 7a)")
	}
}

func TestArtCyclesIntegerQueue(t *testing.T) {
	spec := bench(t, "art")
	cfg := phaseCfg()
	cfg.RecordTrace = true
	r := RunWorkload(spec, cfg, 80_000)
	iqEvents := 0
	for _, e := range r.Stats.ReconfigEvents {
		if e.Kind == "int-iq" {
			iqEvents++
		}
	}
	if iqEvents == 0 {
		t.Error("art produced no integer-queue reconfigurations (paper Figure 7b)")
	}
}

func TestDisableControllers(t *testing.T) {
	spec := bench(t, "apsi")
	cfg := phaseCfg()
	cfg.DisableCacheAdapt = true
	cfg.DisableIQAdapt = true
	cfg.RecordTrace = true
	r := RunWorkload(spec, cfg, 50_000)
	if r.Stats.Reconfigs != 0 {
		t.Errorf("controllers disabled but %d reconfigurations happened", r.Stats.Reconfigs)
	}
}

func TestPhaseModeUsesBPartitions(t *testing.T) {
	spec := bench(t, "em3d")
	prog := RunWorkload(spec, DefaultAdaptive(ProgramAdaptive), testWindow)
	if prog.Stats.DCacheB != 0 || prog.Stats.ICacheB != 0 {
		t.Error("program-adaptive mode produced B hits (should be A-only)")
	}
	ph := RunWorkload(spec, phaseCfg(), testWindow)
	if ph.Stats.DCacheB == 0 {
		t.Error("phase-adaptive em3d produced no D-cache B hits")
	}
}

func TestSyncModeSingleClock(t *testing.T) {
	spec := bench(t, "gzip")
	m := NewMachine(spec, DefaultSync())
	g := m.Clock(clock.FrontEnd)
	for d := clock.Domain(0); int(d) < clock.NumDomains; d++ {
		if m.Clock(d) != g {
			t.Errorf("sync machine domain %v has its own clock", d)
		}
	}
	if got := g.CurrentPeriod(); got != DefaultSync().GlobalPeriod() {
		t.Errorf("sync clock period %d, want %d", got, DefaultSync().GlobalPeriod())
	}
}

func TestAdaptiveModeDomainClocks(t *testing.T) {
	spec := bench(t, "gzip")
	cfg := DefaultAdaptive(ProgramAdaptive)
	cfg.DCache = timing.DCache128K4W
	m := NewMachine(spec, cfg)
	if m.Clock(clock.FrontEnd) == m.Clock(clock.Integer) {
		t.Error("adaptive machine shares clocks across domains")
	}
	if got := m.Clock(clock.LoadStore).CurrentPeriod(); got != timing.DCache128K4W.AdaptPeriod() {
		t.Errorf("LS period %d, want %d", got, timing.DCache128K4W.AdaptPeriod())
	}
	if got := m.Clock(clock.Integer).CurrentPeriod(); got != timing.IQPeriod(timing.IQ16) {
		t.Errorf("INT period %d, want %d", got, timing.IQPeriod(timing.IQ16))
	}
}

func TestBiggerDataCacheHelpsMemoryBound(t *testing.T) {
	// em3d (768KB working set) must run faster with the upsized hierarchy
	// despite the slower load/store clock: the paper's headline tradeoff.
	spec := bench(t, "em3d")
	small := DefaultAdaptive(ProgramAdaptive)
	big := DefaultAdaptive(ProgramAdaptive)
	big.DCache = timing.DCache128K4W
	ts := RunWorkload(spec, small, 60_000).TimeFS
	tb := RunWorkload(spec, big, 60_000).TimeFS
	if tb >= ts {
		t.Errorf("em3d: 128k4W (%d) not faster than 32k1W (%d)", tb, ts)
	}
}

func TestSmallestConfigBestForKernel(t *testing.T) {
	// adpcm-style kernels want the smallest/fastest configuration.
	spec := bench(t, "adpcm encode")
	small := DefaultAdaptive(ProgramAdaptive)
	big := DefaultAdaptive(ProgramAdaptive)
	big.ICache = timing.ICache64K4W
	big.DCache = timing.DCache256K8W
	big.IntIQ = timing.IQ64
	ts := RunWorkload(spec, small, 40_000).TimeFS
	tb := RunWorkload(spec, big, 40_000).TimeFS
	if ts >= tb {
		t.Errorf("adpcm: smallest config (%d) not faster than largest (%d)", ts, tb)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	// White-box: a mispredicted branch floors subsequent fetch at
	// resolve + penalty cycles in the right domains (Table 5).
	spec := bench(t, "gzip")

	// Synchronous machine: 9 front-end + 7 integer cycles on one clock.
	ms := NewMachine(spec, DefaultSync())
	period := ms.Clock(clock.FrontEnd).CurrentPeriod()
	resolve := ms.Clock(clock.FrontEnd).EdgeAtOrAfter(100 * period)
	in := isa.Inst{PC: 0x400040, Class: isa.Branch}
	in.Taken = !ms.syncPred.Predict(in.PC) // force a mispredict
	ms.resolveBranch(&in, resolve)
	if want := resolve + SyncMispredictFE*period; ms.minFetch != want {
		t.Errorf("sync minFetch = %d, want %d", ms.minFetch, want)
	}
	if want := resolve + SyncMispredictInt*period; ms.minIntIssue != want {
		t.Errorf("sync minIntIssue = %d, want %d", ms.minIntIssue, want)
	}
	if ms.stats.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", ms.stats.Mispredicts)
	}

	// Adaptive machine: 10 front-end + 9 integer cycles, each at its own
	// domain clock, with the redirect crossing into the front end.
	ma := NewMachine(spec, DefaultAdaptive(ProgramAdaptive))
	fe := ma.Clock(clock.FrontEnd)
	ic := ma.Clock(clock.Integer)
	resolve = ic.EdgeAtOrAfter(100 * ic.CurrentPeriod())
	in.Taken = !ma.bank.Predict(in.PC)
	ma.resolveBranch(&in, resolve)
	if want := fe.After(clock.Sync(ic, fe, resolve), AdaptMispredictFE); ma.minFetch != want {
		t.Errorf("adaptive minFetch = %d, want %d", ma.minFetch, want)
	}
	if want := ic.After(resolve, AdaptMispredictInt); ma.minIntIssue != want {
		t.Errorf("adaptive minIntIssue = %d, want %d", ma.minIntIssue, want)
	}

	// A correctly predicted branch charges nothing.
	before := ms.minFetch
	in.Taken = ms.syncPred.Predict(in.PC)
	ms.resolveBranch(&in, resolve+1000*period)
	if ms.minFetch != before {
		t.Error("correct prediction moved the fetch floor")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Mode: Synchronous, SyncICache: -1, DCache: 0, IntIQ: 16, FPIQ: 16},
		{Mode: Synchronous, SyncICache: 99, DCache: 0, IntIQ: 16, FPIQ: 16},
		{Mode: ProgramAdaptive, ICache: 7, DCache: 0, IntIQ: 16, FPIQ: 16},
		{Mode: ProgramAdaptive, DCache: 9, IntIQ: 16, FPIQ: 16},
		{Mode: ProgramAdaptive, IntIQ: 17, FPIQ: 16},
		{Mode: ProgramAdaptive, IntIQ: 16, FPIQ: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if err := DefaultSync().Validate(); err != nil {
		t.Errorf("DefaultSync invalid: %v", err)
	}
	if err := DefaultAdaptive(PhaseAdaptive).Validate(); err != nil {
		t.Errorf("DefaultAdaptive invalid: %v", err)
	}
}

func TestModeAndLabelStrings(t *testing.T) {
	if Synchronous.String() != "synchronous" || PhaseAdaptive.String() != "phase-adaptive" {
		t.Error("mode names wrong")
	}
	if DefaultSync().Label() == "" || DefaultAdaptive(ProgramAdaptive).Label() == "" {
		t.Error("empty config labels")
	}
}

func TestGlobalPeriodIsSlowestStructure(t *testing.T) {
	cfg := DefaultSync() // 64k1W I$ at 1210 MHz is the limiter
	idx, _ := timing.SyncICacheIndexByName("64k1W")
	cfg.SyncICache = idx
	want := timing.PeriodFS(timing.SyncICacheSpecs()[idx].MHz)
	if got := cfg.GlobalPeriod(); got != want {
		t.Errorf("global period %d, want %d (I-cache bound)", got, want)
	}
	// With a tiny I-cache the 16-entry queues become the limiter.
	idx4, _ := timing.SyncICacheIndexByName("4k1W")
	cfg.SyncICache = idx4
	cfg.DCache = timing.DCache32K1W
	want = timing.PeriodFS(timing.IQFreqMHz(16))
	if got := cfg.GlobalPeriod(); got != want {
		t.Errorf("global period %d, want %d (queue bound)", got, want)
	}
}

func TestDefaultAdaptivePanicsOnSyncMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DefaultAdaptive(Synchronous) did not panic")
		}
	}()
	DefaultAdaptive(Synchronous)
}

func TestJitterChangesTimingSlightly(t *testing.T) {
	spec := bench(t, "gzip")
	base := DefaultAdaptive(ProgramAdaptive)
	jit := base
	jit.JitterFrac = 0.01
	tb := RunWorkload(spec, base, testWindow).TimeFS
	tj := RunWorkload(spec, jit, testWindow).TimeFS
	if tb == tj {
		t.Error("jitter had no effect at all")
	}
	rel := float64(tj-tb) / float64(tb)
	if rel < -0.05 || rel > 0.05 {
		t.Errorf("jitter moved run time by %.1f%%, want small", rel*100)
	}
}

func TestPLLScaleShortensLocks(t *testing.T) {
	spec := bench(t, "apsi")
	slow := phaseCfg()
	slow.PLLScale = 1.0
	fast := phaseCfg()
	fast.PLLScale = 0.01
	rs := RunWorkload(spec, slow, 60_000)
	rf := RunWorkload(spec, fast, 60_000)
	// With near-instant locks the controller completes more transitions.
	if rf.Stats.Reconfigs < rs.Stats.Reconfigs {
		t.Errorf("fast PLL produced fewer reconfigs (%d) than slow (%d)",
			rf.Stats.Reconfigs, rs.Stats.Reconfigs)
	}
}

func TestSetsBasedICache(t *testing.T) {
	// The Section 7 extension: a sets-resized, always direct-mapped front
	// end. For a big-code, associativity-averse application (vpr), the
	// 64KB sets-based configuration must beat the 64KB 4-way ways-based
	// one: capacity without the associativity frequency penalty.
	spec := bench(t, "vpr")
	ways := DefaultAdaptive(ProgramAdaptive)
	ways.ICache = timing.ICache64K4W
	sets := ways
	sets.ICacheBySets = true
	tw := RunWorkload(spec, ways, 60_000).TimeFS
	ts := RunWorkload(spec, sets, 60_000).TimeFS
	if ts >= tw {
		t.Errorf("vpr: sets-based 64KB DM (%d) not faster than ways-based 64KB 4W (%d)", ts, tw)
	}

	// Validation: the phase controller cannot drive index-changing
	// resizes.
	bad := DefaultAdaptive(PhaseAdaptive)
	bad.ICacheBySets = true
	if err := bad.Validate(); err == nil {
		t.Error("sets-based phase-adaptive config validated")
	}

	// Labels distinguish the variant.
	if sets.Label() == ways.Label() {
		t.Error("sets-based config label identical to ways-based")
	}
}

// TestRandomWorkloadsNeverWedge is a robustness property: machines in all
// three modes must make monotone forward progress on arbitrary workload
// parameterizations (no deadlocks, no time reversal, exact commit counts).
func TestRandomWorkloadsNeverWedge(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 20; trial++ {
		p := workload.Defaults()
		p.CodeKB = 4 + rng.Intn(96)
		p.HotKB = 2 + rng.Intn(p.CodeKB)
		p.DataKB = 8 + rng.Intn(1024)
		p.AvgBlock = 3 + rng.Intn(10)
		p.FnBlocks = 4 + rng.Intn(12)
		p.LoopFrac = rng.Float64() * 0.5
		p.LoopMeanTrips = 1 + rng.Intn(40)
		p.NoiseFrac = rng.Float64() * 0.5
		p.FPFrac = rng.Float64() * 0.6
		p.LoadFrac = 0.1 + rng.Float64()*0.3
		p.StoreFrac = 0.05 + rng.Float64()*0.15
		p.SerialFrac = rng.Float64() * 0.7
		p.MaxDepDist = 1 + rng.Intn(64)
		p.StrideFrac = rng.Float64() * 0.8
		p.StackFrac = rng.Float64() * (1 - p.StrideFrac) * 0.5
		p.HotDataFrac = rng.Float64()
		p.HotDataKB = 4 + rng.Intn(64)
		spec := workload.Spec{Name: "fuzz", Seed: int64(trial + 1), Base: p}

		cfgs := []Config{DefaultSync(), DefaultAdaptive(ProgramAdaptive), phaseCfg()}
		cfg := cfgs[trial%3]
		// Randomize the adaptive structure choices too.
		if cfg.Mode != Synchronous {
			cfg.ICache = timing.ICacheConfig(rng.Intn(4))
			cfg.DCache = timing.DCacheConfig(rng.Intn(4))
			cfg.IntIQ = timing.IQSizes()[rng.Intn(4)]
			cfg.FPIQ = timing.IQSizes()[rng.Intn(4)]
			if cfg.Mode == ProgramAdaptive {
				cfg.ICacheBySets = rng.Intn(2) == 0
			}
		}
		r := RunWorkload(spec, cfg, 8000)
		if r.Stats.Instructions != 8000 {
			t.Fatalf("trial %d (%s): committed %d", trial, cfg.Label(), r.Stats.Instructions)
		}
		if r.TimeFS <= 0 {
			t.Fatalf("trial %d (%s): non-positive time", trial, cfg.Label())
		}
		perInstr := float64(r.TimeFS) / 8000 / 1e6 // ns
		if perInstr > 200 {
			t.Fatalf("trial %d (%s): %.1f ns/instr looks wedged", trial, cfg.Label(), perInstr)
		}
	}
}
