package sweep

import (
	"reflect"
	"testing"

	"gals/internal/core"
	"gals/internal/timing"
	"gals/internal/workload"
)

func TestPhaseSpaceCarriesPolicies(t *testing.T) {
	settings := []PolicySetting{
		{Name: "paper"},
		{Name: "frozen"},
		{Name: "interval", Params: "interval=7500,hysteresis=1"},
	}
	cfgs := PhaseSpace(settings)
	if len(cfgs) != len(settings) {
		t.Fatalf("PhaseSpace has %d configs, want %d", len(cfgs), len(settings))
	}
	for i, cfg := range cfgs {
		if cfg.Mode != core.PhaseAdaptive {
			t.Errorf("config %d mode %v", i, cfg.Mode)
		}
		if cfg.Policy != settings[i].Name || cfg.PolicyParams != settings[i].Params {
			t.Errorf("config %d policy %q{%q}", i, cfg.Policy, cfg.PolicyParams)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
}

// TestPolicySweepEndToEnd runs the policy axis through MeasureSummary like
// any other design space: frozen must never beat paper on a phased
// workload's per-app winner being well-defined, and every cell must be
// finite.
func TestPolicySweepEndToEnd(t *testing.T) {
	specs := []workload.Spec{mustSpec(t, "apsi"), mustSpec(t, "art")}
	cfgs := PhaseSpace([]PolicySetting{
		{Name: "paper"},
		{Name: "frozen"},
		{Name: "interval", Params: "interval=7500"},
	})
	sum, err := MeasureSummary(specs, cfgs, Options{Window: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Best < 0 {
		t.Fatal("policy sweep produced no finite configuration")
	}
	for si, bi := range sum.PerApp {
		if bi < 0 || sum.PerAppTimes[si] <= 0 {
			t.Fatalf("benchmark %d has no winner", si)
		}
	}
	// Distinct policies must actually produce distinct machines: frozen and
	// paper cannot tie on a workload with reconfiguration opportunities.
	times := directTimes(specs[:1], cfgs[:2], Options{Window: 40_000})
	if times[0][0] == times[1][0] {
		t.Error("paper and frozen produced identical times on apsi")
	}
}

// TestOptionsPolicyReachesPhaseStage pins that Options.Policy changes
// MeasurePhase results (and their persist identity) without touching
// configs that already carry a policy.
func TestOptionsPolicyReachesPhaseStage(t *testing.T) {
	specs := []workload.Spec{mustSpec(t, "apsi")}
	paper, err := MeasurePhase(specs, Options{Window: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := MeasurePhase(specs, Options{Window: 40_000, Policy: "frozen"})
	if err != nil {
		t.Fatal(err)
	}
	if frozen[0].Stats.Reconfigs != 0 {
		t.Errorf("frozen phase run reconfigured %d times", frozen[0].Stats.Reconfigs)
	}
	if paper[0].Stats.Reconfigs == 0 {
		t.Error("paper phase run never reconfigured on apsi")
	}
	if paper[0].TimeFS == frozen[0].TimeFS {
		t.Error("policy selection did not change the phase result")
	}
	// A config that carries its own policy wins over the sweep-level one.
	cfg := Options{Window: 1000, Policy: "frozen"}.apply(
		core.DefaultAdaptive(core.PhaseAdaptive).WithPolicy("paper", ""))
	if cfg.Policy != "paper" {
		t.Errorf("apply clobbered the config's own policy with %q", cfg.Policy)
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %q", name)
	}
	return s
}

// TestCrossPhaseSpaceProduct pins the policy x initial-configuration
// product space: policy-major order, one Phase-Adaptive machine per pair,
// and the one-base special case collapsing to PhaseSpace.
func TestCrossPhaseSpaceProduct(t *testing.T) {
	settings := []PolicySetting{{Name: "paper"}, {Name: "frozen"}}
	small := core.DefaultAdaptive(core.PhaseAdaptive)
	large := small
	large.ICache = timing.ICache64K4W
	large.DCache = timing.DCache256K8W
	large.IntIQ, large.FPIQ = timing.IQ64, timing.IQ64

	cfgs := CrossPhaseSpace(settings, []core.Config{small, large})
	if len(cfgs) != 4 {
		t.Fatalf("product space has %d configs, want 4", len(cfgs))
	}
	for i, cfg := range cfgs {
		wantPol := settings[i/2].Name
		if cfg.Policy != wantPol || cfg.Mode != core.PhaseAdaptive {
			t.Errorf("config %d: policy %q mode %v, want %q phase-adaptive", i, cfg.Policy, cfg.Mode, wantPol)
		}
		wantIQ := small.IntIQ
		if i%2 == 1 {
			wantIQ = timing.IQ64
		}
		if cfg.IntIQ != wantIQ {
			t.Errorf("config %d: IntIQ %d, want %d", i, cfg.IntIQ, wantIQ)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
	if !reflect.DeepEqual(CrossPhaseSpace(settings, nil), PhaseSpace(settings)) {
		t.Error("CrossPhaseSpace with no bases differs from PhaseSpace")
	}
}
