package core

import (
	"reflect"
	"testing"
)

// Metamorphic relations: each compares two runs of the simulator with each
// other rather than with a recorded output, so they catch an error that a
// golden regenerated from the erroneous code would bless.

var metamorphicBenches = []string{"gcc", "em3d", "art", "mst"}

func metamorphicCfgs() map[string]Config {
	phase := DefaultAdaptive(PhaseAdaptive)
	phase.PLLScale = 0.1
	return map[string]Config{
		"sync":    DefaultSync(),
		"program": DefaultAdaptive(ProgramAdaptive),
		"phase":   phase,
	}
}

// TestMetamorphicWindowSplit: a machine run for N instructions and then for
// N more ends in the same state as a fresh machine run for 2N, in every
// mode; the boundary between the two calls leaves no trace in the timing.
func TestMetamorphicWindowSplit(t *testing.T) {
	const n = 30_000
	for mode, cfg := range metamorphicCfgs() {
		for _, name := range metamorphicBenches {
			spec := bench(t, name)
			m := NewMachine(spec, cfg)
			m.Run(n)
			split := m.Run(n)
			whole := NewMachine(spec, cfg).Run(2 * n)
			if split.TimeFS != whole.TimeFS || !reflect.DeepEqual(split.Stats, whole.Stats) {
				t.Errorf("%s/%s: Run(%d)+Run(%d) = %d fs %+v, Run(%d) = %d fs %+v",
					mode, name, n, n, split.TimeFS, split.Stats, 2*n, whole.TimeFS, whole.Stats)
			}
		}
	}
}

// TestMetamorphicSeedInvariance: with no clock jitter, Config.Seed reaches
// only the PLL lock-time draw, so a synchronous or Program-Adaptive run
// (which never relocks) does not depend on it. Phase-Adaptive runs draw
// their lock times from the seed and are left out.
func TestMetamorphicSeedInvariance(t *testing.T) {
	const n = 30_000
	cfgs := metamorphicCfgs()
	for _, mode := range []string{"sync", "program"} {
		for _, name := range metamorphicBenches {
			spec := bench(t, name)
			a, b := cfgs[mode], cfgs[mode]
			a.Seed, b.Seed = 1, 0x5eed
			ra := NewMachine(spec, a).Run(n)
			rb := NewMachine(spec, b).Run(n)
			if ra.TimeFS != rb.TimeFS || !reflect.DeepEqual(ra.Stats, rb.Stats) {
				t.Errorf("%s/%s: seed 1 gives %d fs %+v, seed 0x5eed %d fs %+v",
					mode, name, ra.TimeFS, ra.Stats, rb.TimeFS, rb.Stats)
			}
		}
	}
}

// metamorphicControllersOff is the Phase-Adaptive machine with both of its
// controllers disabled.
func metamorphicControllersOff() Config {
	cfg := metamorphicCfgs()["phase"]
	cfg.DisableCacheAdapt, cfg.DisableIQAdapt = true, true
	return cfg
}

// TestMetamorphicControllersOffFrozen: a Phase-Adaptive machine with both
// controllers disabled runs exactly as one under the "frozen" policy,
// which never reconfigures: two routes to the same machine.
func TestMetamorphicControllersOffFrozen(t *testing.T) {
	const n = 30_000
	off := metamorphicControllersOff()
	frozen := metamorphicCfgs()["phase"]
	frozen.Policy = "frozen"
	for _, name := range metamorphicBenches {
		spec := bench(t, name)
		ro := NewMachine(spec, off).Run(n)
		rf := NewMachine(spec, frozen).Run(n)
		if ro.TimeFS != rf.TimeFS || !reflect.DeepEqual(ro.Stats, rf.Stats) {
			t.Errorf("%s: controllers off give %d fs %+v, frozen policy %d fs %+v",
				name, ro.TimeFS, ro.Stats, rf.TimeFS, rf.Stats)
		}
	}
}

// TestMetamorphicPLLScaleWithoutReconfig: the PLL scale stretches only lock
// times, so with both controllers off (no reconfiguration, no lock) a run
// does not depend on it.
func TestMetamorphicPLLScaleWithoutReconfig(t *testing.T) {
	const n = 30_000
	for _, name := range metamorphicBenches {
		spec := bench(t, name)
		a, b := metamorphicControllersOff(), metamorphicControllersOff()
		a.PLLScale, b.PLLScale = 0.1, 1
		ra := NewMachine(spec, a).Run(n)
		rb := NewMachine(spec, b).Run(n)
		if ra.TimeFS != rb.TimeFS || !reflect.DeepEqual(ra.Stats, rb.Stats) {
			t.Errorf("%s: PLL scale 0.1 gives %d fs %+v, scale 1 %d fs %+v",
				name, ra.TimeFS, ra.Stats, rb.TimeFS, rb.Stats)
		}
	}
}
