package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gals/internal/isa"
	"gals/internal/queue"
	"gals/internal/timing"
	"gals/internal/workload"
)

// fused hides a replay's concrete type, so a machine over it runs the
// fused loop instead of the recording's functional stream.
type fused struct{ InstSource }

const streamTestWindow = 30_000

// runTelemetryJSON runs cfg over src with a telemetry sampler and returns
// the result and the encoded artifact.
func runTelemetryJSON(t *testing.T, src InstSource, cfg Config, n int64) (*Result, []byte) {
	t.Helper()
	tel := NewTelemetry(0)
	res, err := NewMachineSource(src, cfg).RunWith(nil, n, RunOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	return res, js
}

// streamVariants are the policy families and controller ablations the
// stream parity test covers.
var streamVariants = []struct {
	name string
	set  func(*Config)
}{
	{"paper", func(c *Config) { c.Policy = "paper" }},
	{"interval", func(c *Config) { c.Policy, c.PolicyParams = "interval", "interval=5000" }},
	{"feedback", func(c *Config) { c.Policy = "feedback" }},
	{"frozen", func(c *Config) { c.Policy = "frozen" }},
	{"noIQ", func(c *Config) { c.DisableIQAdapt = true }},
	{"noCache", func(c *Config) { c.DisableCacheAdapt = true }},
}

// TestFunctionalStreamParity pins the streamed machine bit-identical to
// the fused loop: the same Result (reconfiguration trace included) and the
// same telemetry artifact, byte for byte, for every policy family, both
// controller ablations, several seeds and both PLL scales. The
// recording's first run takes the fused loop, the second builds the stream
// as it goes and the rest reuse it.
func TestFunctionalStreamParity(t *testing.T) {
	for _, name := range []string{"gcc", "em3d", "apsi", "mst", "gsm encode", "art"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := bench(t, name).Record(streamTestWindow)
			for _, v := range streamVariants {
				for si, seed := range []int64{1, 7, 42} {
					cfg := DefaultAdaptive(PhaseAdaptive)
					cfg.RecordTrace = true
					cfg.Seed = seed
					cfg.PLLScale = []float64{0.1, 1}[si%2]
					v.set(&cfg)
					label := fmt.Sprintf("%s/seed%d/pll%g", v.name, seed, cfg.PLLScale)
					want, wantJS := runTelemetryJSON(t, fused{rec.Replay()}, cfg, streamTestWindow)
					got, gotJS := runTelemetryJSON(t, rec.Replay(), cfg, streamTestWindow)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: streamed run diverged from the fused loop:\nfused:    time=%d stats=%+v\nstreamed: time=%d stats=%+v",
							label, want.TimeFS, want.Stats, got.TimeFS, got.Stats)
					}
					if !bytes.Equal(wantJS, gotJS) {
						t.Fatalf("%s: streamed run recorded different telemetry", label)
					}
				}
			}
			if s := recStream(t, rec); !s.complete() {
				t.Fatalf("stream incomplete after %d runs", s.runs.Load())
			}
		})
	}
}

// TestParityStreamFuzz compares streamed with fused runs over randomized
// Phase-Adaptive configurations: benchmark, policy, jitter, window, seed,
// PLL scale, starting configuration and both controller ablations. Each
// case records its own window, so every streamed run builds its stream.
// The generator is seeded, so a failure reproduces; raise fuzzCases
// locally to hunt.
func TestParityStreamFuzz(t *testing.T) {
	const fuzzCases = 16
	rng := rand.New(rand.NewSource(20261017))
	names := workload.Names()
	policies := []string{"", "paper", "interval", "frozen", "feedback"}
	params := []string{"", "", "interval=7500,hysteresis=1", "", ""}
	sizes := timing.IQSizes()
	for i := 0; i < fuzzCases; i++ {
		name := names[rng.Intn(len(names))]
		cfg := DefaultAdaptive(PhaseAdaptive)
		j := rng.Intn(len(policies))
		cfg.Policy, cfg.PolicyParams = policies[j], params[j]
		cfg.ICache = timing.ICacheConfig(rng.Intn(timing.NumICacheConfigs))
		cfg.DCache = timing.DCacheConfig(rng.Intn(timing.NumDCacheConfigs))
		cfg.IntIQ = sizes[rng.Intn(len(sizes))]
		cfg.FPIQ = sizes[rng.Intn(len(sizes))]
		cfg.IQHysteresis = rng.Intn(3)
		cfg.DisableCacheAdapt = rng.Intn(6) == 0
		cfg.DisableIQAdapt = rng.Intn(6) == 0
		cfg.PLLScale = []float64{0.1, 0.1, 1}[rng.Intn(3)]
		cfg.JitterFrac = []float64{0, 0, 0.01, 0.03}[rng.Intn(4)]
		cfg.Seed = int64(rng.Intn(1000))
		cfg.RecordTrace = true
		window := int64(8_000 + rng.Intn(32_000))
		label := fmt.Sprintf("case %d: bench=%s policy=%q window=%d seed=%d pll=%g jitter=%g noIQ=%v noCache=%v",
			i, name, cfg.Policy, window, cfg.Seed, cfg.PLLScale, cfg.JitterFrac, cfg.DisableIQAdapt, cfg.DisableCacheAdapt)

		rec := bench(t, name).Record(window)
		fusedM := NewMachineSource(rec.Replay(), cfg) // the recording's first run, fused
		want := fusedM.Run(window)
		streamM := NewMachineSource(rec.Replay(), cfg)
		got := streamM.Run(window)
		if fusedM.fs != nil || streamM.fs == nil {
			t.Fatalf("%s: streamed = %v then %v, want false then true", label, fusedM.fs != nil, streamM.fs != nil)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: streamed run diverged from the fused loop:\nfused:    time=%d stats=%+v\nstreamed: time=%d stats=%+v",
				label, want.TimeFS, want.Stats, got.TimeFS, got.Stats)
		}
	}
}

// recStream returns rec's stream for the default tracker windows, which
// an earlier run must have created.
func recStream(t *testing.T, rec *workload.Recording) *funcStream {
	t.Helper()
	v, _ := rec.Derived(streamKey{queue.DefaultWindowSizes()}, func() any { t.Fatal("no stream"); return nil })
	return v.(*funcStream)
}

// TestFunctionalStreamConcurrentRuns pins sharing: runs started at once
// on a fresh recording build its one stream together (one of them, the
// recording's first, runs fused), and each still matches the fused loop.
func TestFunctionalStreamConcurrentRuns(t *testing.T) {
	spec := bench(t, "apsi")
	rec := spec.Record(20_000)
	const runs = 4
	cfgs := make([]Config, runs)
	want := make([]*Result, runs)
	for i := range cfgs {
		cfgs[i] = parityCfg()
		cfgs[i].Seed = int64(i + 1)
		want[i] = NewMachineSource(fused{rec.Replay()}, cfgs[i]).Run(rec.Len())
	}
	got := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = NewMachineSource(rec.Replay(), cfgs[i]).Run(rec.Len())
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("run %d diverged from the fused loop", i)
		}
	}
	if !recStream(t, rec).complete() {
		t.Error("stream incomplete after full-length runs")
	}
}

// TestFunctionalStreamContinuation pins machines driven in several runs: a
// streamed machine continues on its stream while the stream covers the
// run, and returns to the fused loop, with its functional state rebuilt,
// when a run reaches past the recording.
func TestFunctionalStreamContinuation(t *testing.T) {
	spec := bench(t, "gcc")
	cfg := parityCfg()
	const recorded = 25_000
	rec := spec.Record(recorded)
	want := NewMachine(spec, cfg).Run(40_000)
	NewMachineSource(rec.Replay(), cfg).Run(recorded) // the recording's first run, fused

	for _, split := range [][]int64{{10_000, 15_000, 15_000}, {recorded, 15_000}, {4096, 4096, 31_808}} {
		m := NewMachineSource(rec.Replay(), cfg)
		var got *Result
		for _, n := range split {
			got = m.Run(n)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("runs of %v diverged from one fused run: time %d, want %d", split, got.TimeFS, want.TimeFS)
		}
	}
}

// TestFunctionalStreamEligibility pins which runs take a stream: a fresh
// Phase-Adaptive machine replaying a recording from its start, for no more
// than the recording holds, once the recording has been run before.
func TestFunctionalStreamEligibility(t *testing.T) {
	spec := bench(t, "mst")
	rec := spec.Record(5000)
	advanced := rec.Replay()
	advanced.Next(new(isa.Inst))
	cases := []struct {
		name   string
		src    InstSource
		cfg    Config
		n      int64
		stream bool
	}{
		{"phase replay", rec.Replay(), phaseCfg(), 5000, true},
		{"live trace", spec.NewTrace(), phaseCfg(), 5000, false},
		{"past the recording", rec.Replay(), phaseCfg(), 5001, false},
		{"advanced replay", advanced, phaseCfg(), 4000, false},
		{"synchronous", rec.Replay(), DefaultSync(), 5000, false},
		{"program-adaptive", rec.Replay(), DefaultAdaptive(ProgramAdaptive), 5000, false},
	}
	for _, c := range cases {
		m := NewMachineSource(c.src, c.cfg)
		if got := m.streamRecording(c.n) != nil; got != c.stream {
			t.Errorf("%s: eligible = %v, want %v", c.name, got, c.stream)
		}
	}
	for i, want := range []bool{false, true, true} {
		m := NewMachineSource(rec.Replay(), phaseCfg())
		if m.useStream(5000); (m.fs != nil) != want {
			t.Errorf("eligible run %d: streamed = %v, want %v", i+1, m.fs != nil, want)
		}
	}
}

// TestFunctionalStreamBytes bounds a stream's heap cost, which the
// recording carries for as long as it lives, and pins the build/reuse
// counters: the first run takes the fused loop, the second builds the
// stream and the third reuses it.
func TestFunctionalStreamBytes(t *testing.T) {
	const n = 100_000
	for _, name := range []string{"gcc", "em3d", "apsi", "mst"} {
		rec := bench(t, name).Record(n)
		builds, reuses := FunctionalStreamBuilds(), FunctionalStreamReuses()
		NewMachineSource(rec.Replay(), phaseCfg()).Run(n)
		NewMachineSource(rec.Replay(), parityCfg()).Run(n)
		NewMachineSource(rec.Replay(), phaseCfg()).Run(n)
		if d := FunctionalStreamBuilds() - builds; d != 1 {
			t.Errorf("%s: %d stream builds, want 1", name, d)
		}
		if d := FunctionalStreamReuses() - reuses; d != 1 {
			t.Errorf("%s: %d stream reuses, want 1", name, d)
		}
		s := recStream(t, rec)
		if !s.complete() {
			t.Errorf("%s: stream incomplete after a full-length run", name)
		}
		perInst := float64(s.bytes.Load()) / n
		t.Logf("%s: %.2f B/instruction", name, perInst)
		if perInst > 2 {
			t.Errorf("%s: stream holds %.2f B/instruction, want <= 2", name, perInst)
		}
	}
}

// pollCtx is a context whose Done channel closes on its polls-th call, so
// a run is cancelled at a known cancellation quantum.
type pollCtx struct {
	context.Context
	polls int
	done  chan struct{}
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestFunctionalStreamCancel pins cancellation: a streamed run cancelled
// mid-way returns ctx's error, and the chunks it built serve the next run.
func TestFunctionalStreamCancel(t *testing.T) {
	spec := bench(t, "em3d")
	cfg := parityCfg()
	const n = 3 * cancelQuantum
	rec := spec.Record(n)
	NewMachineSource(rec.Replay(), cfg).Run(n) // the recording's first run, fused
	// Polls 1 and 2 are RunWith's entry check and the first quantum's.
	ctx := &pollCtx{Context: context.Background(), polls: 3, done: make(chan struct{})}
	if _, err := NewMachineSource(rec.Replay(), cfg).RunWith(ctx, n, RunOptions{}); err != context.Canceled {
		t.Fatalf("cancelled run: got %v, want context.Canceled", err)
	}
	if s := recStream(t, rec); s.built.Load() == 0 || s.complete() {
		t.Fatalf("cancelled run built %d of %d chunks, want some but not all", s.built.Load(), len(s.chunks))
	}
	want := NewMachineSource(fused{rec.Replay()}, cfg).Run(n)
	got := NewMachineSource(rec.Replay(), cfg).Run(n)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streamed run after a cancelled one diverged")
	}
}

// BenchmarkFunctionalStreamBuild measures building a recording's functional
// stream: the per-instruction functional stage alone (cache MRU updates,
// ILP tracker, four-geometry branch prediction) plus the replay that
// feeds it and the stream's packing. ns/op is per instruction.
func BenchmarkFunctionalStreamBuild(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	rec := spec.Record(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	s := newFuncStream(rec, queue.DefaultWindowSizes())
	s.open()
	for s.buildOne() {
	}
	b.StopTimer()
	b.ReportMetric(float64(s.bytes.Load())/float64(b.N), "stream-B/inst")
}
