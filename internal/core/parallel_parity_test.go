package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gals/internal/timing"
	"gals/internal/workload"
)

// The parallel machine's contract is bit-identity: RunWith must produce
// the same Result — time, statistics, reconfiguration event sequence — as
// Run, for every mode, policy and configuration. These tests are the gate:
// directed cases over the golden benchmarks and a randomized sweep over
// (benchmark, mode, policy, configuration, jitter, window, degree). They
// run under -race via `make parity`, which also checks the stage pipeline
// for data races.

// runPair executes the same (spec, cfg, window) sequentially and in
// parallel and requires deeply equal results.
func runPair(t *testing.T, label string, spec workload.Spec, cfg Config, n int64, degree int) {
	t.Helper()
	seq := NewMachine(spec, cfg).Run(n)
	par, _ := NewMachine(spec, cfg).RunWith(nil, n, RunOptions{Degree: degree})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: parallel (degree %d) diverged from sequential:\nseq: time=%d stats=%+v\npar: time=%d stats=%+v",
			label, degree, seq.TimeFS, seq.Stats, par.TimeFS, par.Stats)
	}
}

func TestParityParallelMatchesSequentialGoldenBenches(t *testing.T) {
	for _, benchName := range []string{"apsi", "art", "mst"} {
		spec := bench(t, benchName)
		for _, degree := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/degree%d", benchName, degree), func(t *testing.T) {
				cfg := parityCfg()
				runPair(t, benchName, spec, cfg, parityWindow, degree)
			})
		}
	}
}

func TestParityParallelAllModes(t *testing.T) {
	spec := bench(t, "gcc")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"synchronous", DefaultSync()},
		{"program-adaptive", DefaultAdaptive(ProgramAdaptive)},
		{"phase-adaptive", parityCfg()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runPair(t, c.name, spec, c.cfg, 40_000, 3)
		})
	}
}

func TestParityParallelAllPolicies(t *testing.T) {
	spec := bench(t, "equake")
	for _, policy := range []string{"paper", "interval", "frozen", "feedback"} {
		t.Run(policy, func(t *testing.T) {
			cfg := parityCfg()
			cfg.Policy = policy
			runPair(t, policy, spec, cfg, 40_000, 3)
		})
	}
}

// TestParityParallelFuzz sweeps randomized configurations. The generator is
// seeded, so a failure reproduces; raise fuzzCases locally to hunt.
func TestParityParallelFuzz(t *testing.T) {
	const fuzzCases = 14
	rng := rand.New(rand.NewSource(20260807))
	names := workload.Names()
	policies := []string{"", "paper", "interval", "frozen", "feedback"}
	params := []string{"", "", "interval=7500,hysteresis=1", "", ""}

	for i := 0; i < fuzzCases; i++ {
		benchName := names[rng.Intn(len(names))]
		spec := bench(t, benchName)

		var cfg Config
		var policy string
		switch rng.Intn(6) {
		case 0:
			cfg = DefaultSync()
			cfg.DCache = timing.DCacheConfig(rng.Intn(timing.NumDCacheConfigs))
		case 1:
			cfg = DefaultAdaptive(ProgramAdaptive)
			cfg.ICacheBySets = rng.Intn(2) == 0
		default: // the adaptive controllers are the interesting surface
			cfg = DefaultAdaptive(PhaseAdaptive)
			j := rng.Intn(len(policies))
			policy = policies[j]
			cfg.Policy, cfg.PolicyParams = policy, params[j]
			cfg.IQHysteresis = rng.Intn(3)
			cfg.DisableCacheAdapt = rng.Intn(8) == 0
			cfg.DisableIQAdapt = rng.Intn(8) == 0
			cfg.PLLScale = 0.1
		}
		if cfg.Mode != Synchronous {
			cfg.ICache = timing.ICacheConfig(rng.Intn(timing.NumICacheConfigs))
			cfg.DCache = timing.DCacheConfig(rng.Intn(timing.NumDCacheConfigs))
			if cfg.ICacheBySets {
				cfg.ICache = timing.ICache16K1W // size classes share the index space
			}
		}
		sizes := timing.IQSizes()
		cfg.IntIQ = sizes[rng.Intn(len(sizes))]
		cfg.FPIQ = sizes[rng.Intn(len(sizes))]
		cfg.Seed = int64(rng.Intn(1000))
		cfg.JitterFrac = []float64{0, 0, 0.01, 0.03}[rng.Intn(4)]
		cfg.RecordTrace = true
		window := int64(8_000 + rng.Intn(32_000))
		degree := 2 + rng.Intn(3) // 4 exercises the >3 clamp

		label := fmt.Sprintf("case %d: bench=%s mode=%v policy=%q window=%d degree=%d seed=%d",
			i, benchName, cfg.Mode, policy, window, degree, cfg.Seed)
		runPair(t, label, spec, cfg, window, degree)
	}
}

// TestParityParallelRecordedReplay pins replay equivalence: a parallel run
// over a recorded source must equal a sequential run over the same
// recording (and, transitively, the live run that produced it). Both hide
// the replay, so they run the fused loop and the ring pipeline rather than
// the recording's functional stream.
func TestParityParallelRecordedReplay(t *testing.T) {
	spec := bench(t, "em3d")
	cfg := parityCfg()
	const n = 40_000
	rec := spec.Record(n)
	seq := RunSource(fused{rec.Replay()}, cfg, n)
	par, _ := NewMachineSource(fused{rec.Replay()}, cfg).RunWith(nil, n, RunOptions{Degree: 3})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel replay diverged: seq time=%d par time=%d", seq.TimeFS, par.TimeFS)
	}
	live := RunWorkloadParallel(spec, cfg, n, 2)
	if !reflect.DeepEqual(seq, live) {
		t.Fatalf("parallel live run diverged from recorded: seq time=%d live time=%d", seq.TimeFS, live.TimeFS)
	}
}

// TestParityParallelContext pins cancellation: a never-cancelled
// context is bit-identical, and cancellation tears the pipeline down
// without wedging.
func TestParityParallelContext(t *testing.T) {
	spec := bench(t, "art")
	cfg := parityCfg()
	const n = 30_000

	seq := NewMachine(spec, cfg).Run(n)
	res, err := NewMachine(spec, cfg).RunWith(context.Background(), n, RunOptions{Degree: 3})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if !reflect.DeepEqual(seq, res) {
		t.Fatalf("RunWith diverged from sequential")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewMachine(spec, cfg).RunWith(ctx, n, RunOptions{Degree: 3}); err != context.Canceled {
		t.Fatalf("cancelled RunWith: got %v, want context.Canceled", err)
	}

	// Mid-run cancellation: must return promptly with ctx.Err and leave no
	// stage goroutine blocked (the -race runner would flag a leak-induced
	// deadlock as a timeout).
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := NewMachine(spec, cfg).RunWith(ctx2, 50_000_000, RunOptions{Degree: 3})
		if err != context.Canceled {
			t.Errorf("mid-run cancel: got %v, want context.Canceled", err)
		}
	}()
	cancel2()
	<-done
}

func TestParityParallelDegreeResolution(t *testing.T) {
	if got := ParallelDegree(5); got != 3 {
		t.Fatalf("ParallelDegree(5) = %d, want 3", got)
	}
	if got := ParallelDegree(2); got != 2 {
		t.Fatalf("ParallelDegree(2) = %d, want 2", got)
	}
	if got := ParallelDegree(0); got < 1 || got > 3 {
		t.Fatalf("ParallelDegree(0) = %d, want 1..3", got)
	}
	// Degree 1 (and below) must be plain sequential execution.
	spec := bench(t, "mst")
	cfg := DefaultAdaptive(PhaseAdaptive)
	cfg.PLLScale = 0.1
	seq := NewMachine(spec, cfg).Run(20_000)
	one, _ := NewMachine(spec, cfg).RunWith(nil, 20_000, RunOptions{Degree: 1})
	if !reflect.DeepEqual(seq, one) {
		t.Fatalf("RunWith(degree 1) diverged from Run")
	}
}

// TestParityRunWithMatrix crosses every RunWith execution knob — degree,
// a cancellable context and telemetry — against the plain Run loop: each
// combination must return Run's Result, every telemetry-on combination the
// same series, and the uncancellable sequential call must allocate exactly
// what Run does (it is the same loop).
func TestParityRunWithMatrix(t *testing.T) {
	spec := bench(t, "apsi")
	cfg := parityCfg()
	const n = 25_000
	want := NewMachine(spec, cfg).Run(n)
	var series *Telemetry
	for _, degree := range []int{1, 2, 3} {
		for _, cancellable := range []bool{false, true} {
			for _, withTel := range []bool{false, true} {
				var ctx context.Context
				if cancellable {
					c, cancel := context.WithCancel(context.Background())
					defer cancel()
					ctx = c
				}
				var tel *Telemetry
				if withTel {
					tel = NewTelemetry(0)
				}
				label := fmt.Sprintf("degree=%d cancellable=%v telemetry=%v", degree, cancellable, withTel)
				got, err := NewMachine(spec, cfg).RunWith(ctx, n, RunOptions{Degree: degree, Telemetry: tel})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: diverged from Run", label)
				}
				if tel == nil {
					continue
				}
				if series == nil {
					series = tel
				} else if !reflect.DeepEqual(series.Samples, tel.Samples) || !reflect.DeepEqual(series.Events, tel.Events) {
					t.Fatalf("%s: telemetry series differs from degree 1", label)
				}
			}
		}
	}

	const small = 5_000
	plain := testing.AllocsPerRun(3, func() { NewMachine(spec, cfg).Run(small) })
	with := testing.AllocsPerRun(3, func() { NewMachine(spec, cfg).RunWith(nil, small, RunOptions{}) })
	if plain != with {
		t.Fatalf("RunWith(nil, n, RunOptions{}) allocates %v per run, Run %v", with, plain)
	}
}
