// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its rows/series), plus ablation benchmarks for
// the design choices called out in DESIGN.md and micro-benchmarks of the
// simulator's hot paths.
//
// The dynamic experiments (Figure 6, Table 9, Figure 7) run at a scaled
// window sized for benchmark runs; cmd/experiments regenerates them at the
// full calibration scale recorded in EXPERIMENTS.md. Set
// GALS_BENCH_WINDOW to override the window.
package gals

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/core"
	"gals/internal/experiment"
	"gals/internal/isa"
	"gals/internal/service"
	"gals/internal/timing"
	"gals/internal/workload"
)

// benchWindow is the instruction window for dynamic experiment benchmarks.
func benchWindow() int64 {
	if s := os.Getenv("GALS_BENCH_WINDOW"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	// 60K instructions: large enough that warmup (compulsory misses) does
	// not drown the Figure 6 means; the recorded EXPERIMENTS.md run uses
	// 100K.
	return 60_000
}

var printOnce sync.Map

// runExperimentBench regenerates one experiment per iteration (the suite
// pipeline is cached per options, so repeated iterations measure retrieval
// plus any uncached work) and prints the resulting rows once.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	o := DefaultExperimentOptions()
	o.Window = benchWindow()
	var tab *ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = RunExperiment(id, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && tab != nil {
		fmt.Println(tab.Render())
	}
}

func BenchmarkTable1(b *testing.B)  { runExperimentBench(b, "table1") }
func BenchmarkFigure2(b *testing.B) { runExperimentBench(b, "figure2") }
func BenchmarkTable2(b *testing.B)  { runExperimentBench(b, "table2") }
func BenchmarkTable3(b *testing.B)  { runExperimentBench(b, "table3") }
func BenchmarkFigure3(b *testing.B) { runExperimentBench(b, "figure3") }
func BenchmarkFigure4(b *testing.B) { runExperimentBench(b, "figure4") }
func BenchmarkTable4(b *testing.B)  { runExperimentBench(b, "table4") }
func BenchmarkTable5(b *testing.B)  { runExperimentBench(b, "table5") }
func BenchmarkTable6(b *testing.B)  { runExperimentBench(b, "table6") }
func BenchmarkTable7(b *testing.B)  { runExperimentBench(b, "table7") }
func BenchmarkTable8(b *testing.B)  { runExperimentBench(b, "table8") }

// BenchmarkFigure6 regenerates the headline comparison and reports the
// suite-mean improvements as custom metrics (paper: +17.6% / +20.4%).
func BenchmarkFigure6(b *testing.B) {
	o := DefaultExperimentOptions()
	o.Window = benchWindow()
	var r *experiment.SuiteResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiment.RunSuite(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanProg, "program-adaptive-%")
	b.ReportMetric(r.MeanPhase, "phase-adaptive-%")
	if _, done := printOnce.LoadOrStore("figure6", true); !done {
		tab, _ := RunExperiment("figure6", o)
		fmt.Println(tab.Render())
	}
}

func BenchmarkTable9(b *testing.B)  { runExperimentBench(b, "table9") }
func BenchmarkFigure7(b *testing.B) { runExperimentBench(b, "figure7") }

// ---------------------------------------------------------------------------
// Ablation benchmarks: the design choices DESIGN.md calls out.

// ablationRun reports the run time (us) of one machine variant on apsi, the
// paper's phase-rich example.
func ablationRun(b *testing.B, mutate func(*Config)) {
	b.Helper()
	spec, err := Workload("apsi")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultPhaseAdaptive()
	mutate(&cfg)
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Run(spec, cfg, benchWindow())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Seconds()*1e6, "us-runtime")
	b.ReportMetric(float64(res.Stats.Reconfigs), "reconfigs")
}

// BenchmarkAblationControllersOff freezes both controllers: the cost of
// losing phase adaptation entirely.
func BenchmarkAblationControllersOff(b *testing.B) {
	ablationRun(b, func(c *Config) { c.DisableCacheAdapt = true; c.DisableIQAdapt = true })
}

// BenchmarkAblationCacheOnly enables only the Accounting Cache controller.
func BenchmarkAblationCacheOnly(b *testing.B) {
	ablationRun(b, func(c *Config) { c.DisableIQAdapt = true })
}

// BenchmarkAblationIQOnly enables only the ILP-tracking queue controller.
func BenchmarkAblationIQOnly(b *testing.B) {
	ablationRun(b, func(c *Config) { c.DisableCacheAdapt = true })
}

// BenchmarkAblationFull is the complete Phase-Adaptive machine.
func BenchmarkAblationFull(b *testing.B) {
	ablationRun(b, func(c *Config) {})
}

// BenchmarkAblationIQHysteresis1 drops the queue controller's anti-thrash
// hysteresis to a single interval (the paper's literal "resize as soon as
// all four counts are available").
func BenchmarkAblationIQHysteresis1(b *testing.B) {
	ablationRun(b, func(c *Config) { c.IQHysteresis = 1 })
}

// BenchmarkAblationSlowPLL runs with unscaled 10-20us PLL lock times,
// showing the cost of slow frequency changes at short phase lengths.
func BenchmarkAblationSlowPLL(b *testing.B) {
	ablationRun(b, func(c *Config) { c.PLLScale = 1.0 })
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the simulator's hot paths.

func BenchmarkSimulatorSynchronous(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	m := core.NewMachine(spec, core.DefaultSync())
	b.ResetTimer()
	m.Run(int64(b.N))
}

func BenchmarkSimulatorProgramAdaptive(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	m := core.NewMachine(spec, core.DefaultAdaptive(core.ProgramAdaptive))
	b.ResetTimer()
	m.Run(int64(b.N))
}

func BenchmarkSimulatorPhaseAdaptive(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	m := core.NewMachine(spec, cfg)
	b.ResetTimer()
	m.Run(int64(b.N))
}

// BenchmarkSimulatorPhaseAdaptiveContext is BenchmarkSimulatorPhaseAdaptive
// through the cancellable entry point with a live (cancellable, never
// cancelled) context: the overhead of deadline support on the hot loop —
// one select per 10,000-instruction quantum. The committed bound is <= 1%
// versus the plain Run path (which is itself untouched: a nil context
// delegates straight to Run). See PERFORMANCE.md.
func BenchmarkSimulatorPhaseAdaptiveContext(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	m := core.NewMachine(spec, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	if _, err := m.RunWith(ctx, int64(b.N), core.RunOptions{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTelemetryOverhead pins the telemetry sampler's A/B contract:
// a machine with no sampler attached (the default) must run within ~1% of
// the pre-telemetry baseline, and the cost with a sampler attached must be
// quantified, not guessed. Two identical phase-adaptive machines advance in
// interleaved chunks — alternation cancels cache/thermal drift that would
// bias back-to-back timed loops — and the off/on per-instruction costs land
// as custom metrics (off-ns/inst, on-ns/inst, overhead-%). The reported
// ns/op is the telemetry-OFF path, so regressions in the nil-sampler check
// itself surface in the headline number. See PERFORMANCE.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	off := core.NewMachine(spec, cfg)
	on := core.NewMachine(spec, cfg)
	// An effectively unbounded ring: the measured cost is sampling, not
	// ring-wraparound writes (which are the same stores anyway).
	traced := core.RunOptions{Telemetry: core.NewTelemetry(1 << 20)}

	const chunk = 10_000
	var offNS, onNS int64
	b.ResetTimer()
	remaining := int64(b.N)
	for remaining > 0 {
		n := int64(chunk)
		if n > remaining {
			n = remaining
		}
		t0 := nowNS()
		off.Run(n)
		t1 := nowNS()
		b.StopTimer() // keep the headline ns/op = the telemetry-OFF path
		t2 := nowNS()
		on.RunWith(nil, n, traced)
		t3 := nowNS()
		b.StartTimer()
		offNS += t1 - t0
		onNS += t3 - t2
		remaining -= n
	}
	b.StopTimer()
	perOff := float64(offNS) / float64(b.N)
	perOn := float64(onNS) / float64(b.N)
	b.ReportMetric(perOff, "off-ns/inst")
	b.ReportMetric(perOn, "on-ns/inst")
	b.ReportMetric(100*(perOn-perOff)/perOff, "overhead-%")
}

func nowNS() int64 { return time.Now().UnixNano() }

// BenchmarkStageFunctional isolates the functional stage's per-instruction
// cost (cache-hierarchy accesses + ILP tracking): positions only, no
// timing model. With internal/workload's BenchmarkTraceNext (generate) and
// BenchmarkSimulatorPhaseAdaptive (all three stages fused), this
// decomposes the sequential budget into its stage costs.
func BenchmarkStageFunctional(b *testing.B) {
	// The adaptive machine's geometries (core/machine.go): 64KB 4-way L1I,
	// 32KB 8-way L1D, 256KB 8-way L2.
	icache := cache.New(cache.Geometry{Name: "L1I", Sets: 16 * 1024 / 64, Ways: 4, LineBytes: 64})
	dcache := cache.New(cache.Geometry{Name: "L1D", Sets: 32 * 1024 / 64, Ways: 8, LineBytes: 64})
	l2 := cache.New(cache.Geometry{Name: "L2", Sets: 256 * 1024 / 128, Ways: 8, LineBytes: 128})
	spec, _ := workload.ByName("gcc")
	tr := spec.NewTrace()
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Next(&in)
		icache.AccessPos(in.PC, false)
		if in.Class == isa.Load {
			if dcache.AccessPos(in.Addr, false) < 0 {
				l2.AccessPos(in.Addr, false)
			}
		} else if in.Class == isa.Store {
			if dcache.AccessPos(in.Addr, true) < 0 {
				l2.AccessPos(in.Addr, true)
			}
		}
	}
}

func BenchmarkAccountingCacheAccess(b *testing.B) {
	c := cache.New(cache.Geometry{Name: "bench", Sets: 512, Ways: 8, LineBytes: 64})
	c.Configure(2, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)&0xFFFFF, i&7 == 0)
	}
}

func BenchmarkBranchPredictor(b *testing.B) {
	p := bpred.New(timing.ICache16K1W.Spec().BPred)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + (i%512)*36)
		taken := i%3 != 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

// BenchmarkTraceReplay measures the recorded-trace path the sweeps now run
// on: one immutable recording per benchmark, replayed per configuration.
func BenchmarkTraceReplay(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	rec := spec.Record(1 << 16)
	rp := rec.Replay()
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rp.Count() == rec.Len() {
			rp = rec.Replay() // stay inside the slab
		}
		rp.Next(&in)
	}
}

// BenchmarkSimulatorPhaseAdaptiveRecorded is BenchmarkSimulatorPhaseAdaptive
// on a recorded trace: the simulator cost with generation amortized away.
// As the recording's first Phase-Adaptive run it takes the fused loop.
func BenchmarkSimulatorPhaseAdaptiveRecorded(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	rec := spec.Record(int64(b.N))
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	m := core.NewMachineSource(rec.Replay(), cfg)
	b.ResetTimer()
	m.Run(int64(b.N))
}

// BenchmarkSimulatorPhaseAdaptiveStream is BenchmarkSimulatorPhaseAdaptive
// on a recording whose functional stream an earlier run already built:
// what every later Phase-Adaptive run of a shared recording costs, the
// timing model plus replay. The recording's first run takes the fused loop
// (BenchmarkSimulatorPhaseAdaptiveRecorded) and its second builds the
// stream.
func BenchmarkSimulatorPhaseAdaptiveStream(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	rec := spec.Record(int64(b.N))
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	for range 2 {
		core.NewMachineSource(rec.Replay(), cfg).Run(int64(b.N))
	}
	m := core.NewMachineSource(rec.Replay(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(int64(b.N))
}

// BenchmarkSimulatorSynchronousRecorded is the synchronous sweep cell's hot
// path: a Table 3 synchronous configuration replaying a recorded slab, as
// every cell of the 1,024-point synchronous sweep does. B/op pins the
// instruction loop's steady-state allocation (0 since the cache latencies
// are cached per configuration instead of looked up per access).
func BenchmarkSimulatorSynchronousRecorded(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	rec := spec.Record(int64(b.N))
	m := core.NewMachineSource(rec.Replay(), core.DefaultSync())
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(int64(b.N))
}

// warmRunAllocBudget bounds allocations per warm (cache-hit) service run.
// The warm path is: normalize -> cache key (canonical JSON) -> singleflight
// -> disk load + decode; the audit that set this measured 36 allocs/op
// (after memoizing the workload suite, which had been rebuilt per request
// validation). The budget has headroom so GC-timing jitter can't flake CI,
// but an accidental per-request buffer, map or suite rebuild on the hot
// path trips it.
const warmRunAllocBudget = 60

// BenchmarkServiceWarmRun measures the warm /v1/run path — the request is
// already cached, so iterations cost normalize + key + singleflight +
// persistent-cache load — and asserts the allocation budget (enforced in
// CI by bench-smoke's 1x pass).
func BenchmarkServiceWarmRun(b *testing.B) {
	s, err := service.New(service.Config{CacheDir: b.TempDir(), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	req := service.RunRequest{Bench: "gcc", Window: 3000}
	if _, err := s.Run(ctx, req); err != nil { // cold run warms the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(avg, "audited-allocs/op")
	if avg > warmRunAllocBudget {
		b.Fatalf("warm /v1/run allocates %.0f objects/op, budget %d", avg, warmRunAllocBudget)
	}
}

// BenchmarkAblationICacheSets probes the paper's Section 7 future-work
// hypothesis: on vpr (64KB of I-capacity wanted, no associativity need —
// the paper's worst Program-Adaptive loss), a sets-resized direct-mapped
// front end recovers the frequency lost to the ways-based design's 4-way
// configuration.
func BenchmarkAblationICacheSets(b *testing.B) {
	spec, err := Workload("vpr")
	if err != nil {
		b.Fatal(err)
	}
	ways := DefaultProgramAdaptive()
	ways.ICache = 3 // 64KB 4-way (ways-based)
	sets := ways
	sets.ICacheBySets = true // 64KB direct mapped (sets-based)
	var tw, ts *Result
	for i := 0; i < b.N; i++ {
		tw, err = Run(spec, ways, benchWindow())
		if err != nil {
			b.Fatal(err)
		}
		ts, err = Run(spec, sets, benchWindow())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tw.Seconds()*1e6, "us-ways")
	b.ReportMetric(ts.Seconds()*1e6, "us-sets")
	b.ReportMetric(Improvement(tw.TimeFS, ts.TimeFS), "sets-gain-%")
}
