package gals

import (
	"context"
	"reflect"
	"testing"
)

func TestWorkloadLookup(t *testing.T) {
	if _, err := Workload("gcc"); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("not-a-benchmark"); err == nil {
		t.Error("bogus workload lookup succeeded")
	}
	if len(Workloads()) != 40 {
		t.Errorf("suite has %d workloads, want 40", len(Workloads()))
	}
}

func TestRunValidation(t *testing.T) {
	spec, _ := Workload("gzip")
	if _, err := Run(spec, Config{Mode: ProgramAdaptive, IntIQ: 5, FPIQ: 16}, 1000); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Run(spec, DefaultSynchronous(), 0); err == nil {
		t.Error("zero window accepted")
	}
	r, err := Run(spec, DefaultSynchronous(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Instructions != 2000 {
		t.Errorf("ran %d instructions, want 2000", r.Stats.Instructions)
	}
}

func TestThreeModesRun(t *testing.T) {
	spec, _ := Workload("adpcm encode")
	for _, cfg := range []Config{DefaultSynchronous(), DefaultProgramAdaptive(), DefaultPhaseAdaptive()} {
		r, err := Run(spec, cfg, 5000)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Mode, err)
		}
		if r.TimeFS <= 0 {
			t.Errorf("%v: non-positive time", cfg.Mode)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) != 16 {
		t.Errorf("got %d experiments, want 16", len(ids))
	}
	tab, err := RunExperiment("table1", DefaultExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("table1 rows = %d, want 4", len(tab.Rows))
	}
}

// TestRecordedFacade exercises the recorded-trace facade: validation,
// bit-identical replay, and pool sharing through SweepOptions.
func TestRecordedFacade(t *testing.T) {
	spec, _ := Workload("gzip")
	if _, err := RecordWorkload(spec, 0); err == nil {
		t.Error("zero-length recording accepted")
	}
	if _, err := NewTracePool(0); err == nil {
		t.Error("zero-window pool accepted")
	}
	rec, err := RecordWorkload(spec, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(context.Background(), rec.Replay(), DefaultSynchronous(), 0, RunOptions{}); err == nil {
		t.Error("zero window accepted")
	}
	live, err := Run(spec, DefaultPhaseAdaptive(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunWith(context.Background(), rec.Replay(), DefaultPhaseAdaptive(), 3000, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if live.TimeFS != replay.TimeFS {
		t.Errorf("replayed TimeFS %d != live %d", replay.TimeFS, live.TimeFS)
	}
	tel := NewTelemetry()
	// The recording's second run replays its functional stream.
	traced, err := RunWith(context.Background(), rec.Replay(), DefaultPhaseAdaptive(), 3000, RunOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, live) || tel.Window != 3000 {
		t.Errorf("traced streamed replay diverged from the live run (telemetry window %d)", tel.Window)
	}
	pool, err := NewTracePool(2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg, tt := ProgramAdaptiveSearch(spec, SweepOptions{Window: 2000, Traces: pool})
	cfg2, tt2 := ProgramAdaptiveSearch(spec, SweepOptions{Window: 2000})
	if tt != tt2 || cfg != cfg2 {
		t.Errorf("pooled search (%v, %d) != pool-less search (%v, %d)", cfg, tt, cfg2, tt2)
	}
	if pool.Size() != 1 {
		t.Errorf("pool holds %d recordings, want 1", pool.Size())
	}
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement(150, 100); got != 50 {
		t.Errorf("Improvement = %v, want 50", got)
	}
}

func TestProgramAdaptiveSearchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("256-point search in -short mode")
	}
	spec, _ := Workload("adpcm encode")
	cfg, tt := ProgramAdaptiveSearch(spec, SweepOptions{Window: 2000})
	if tt <= 0 {
		t.Fatal("non-positive best time")
	}
	if cfg.Mode != ProgramAdaptive {
		t.Errorf("search returned mode %v", cfg.Mode)
	}
	// The search result can never be slower than the base configuration.
	base, err := Run(spec, DefaultProgramAdaptive(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if tt > base.TimeFS {
		t.Errorf("exhaustive best (%d) slower than base config (%d)", tt, base.TimeFS)
	}
}

func TestPoliciesFacade(t *testing.T) {
	infos := Policies()
	if len(infos) < 3 {
		t.Fatalf("Policies() lists %d policies, want >= 3", len(infos))
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
	}
	for _, want := range []string{"paper", "interval", "frozen"} {
		if !names[want] {
			t.Errorf("Policies() missing %q", want)
		}
	}

	spec, err := Workload("apsi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPhaseAdaptive().WithPolicy("frozen", "")
	res, err := Run(spec, cfg, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Reconfigs != 0 {
		t.Errorf("frozen policy reconfigured %d times", res.Stats.Reconfigs)
	}
	if _, err := Run(spec, DefaultPhaseAdaptive().WithPolicy("nope", ""), 1000); err == nil {
		t.Error("unknown policy accepted by Run")
	}
}
