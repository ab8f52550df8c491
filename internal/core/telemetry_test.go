package core

import (
	"reflect"
	"sort"
	"testing"

	"gals/internal/clock"
	"gals/internal/control"
	"gals/internal/timing"
	"gals/internal/workload"
)

const telTestWindow = 30_000

// runTelemetry runs spec sequentially with the sampler attached.
func runTelemetry(spec workload.Spec, cfg Config, n int64, t *Telemetry) *Result {
	res, _ := NewMachine(spec, cfg).RunWith(nil, n, RunOptions{Telemetry: t})
	return res
}

// TestTelemetryParity pins the tentpole's invisibility contract: attaching
// a telemetry sampler must not change a single simulated bit. For every
// registered adaptation policy (blob-requiring ones excluded — they need a
// trained artifact) the telemetry-on run must produce identical Stats
// (recorded reconfiguration trace included) and identical wall time, and
// the artifact's event total must reconcile exactly with Stats.Reconfigs.
func TestTelemetryParity(t *testing.T) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	cfgs := map[string]Config{"sync": DefaultSync(), "program": DefaultAdaptive(ProgramAdaptive)}
	for _, in := range control.Infos() {
		if in.RequiresBlob {
			continue
		}
		cfg := DefaultAdaptive(PhaseAdaptive)
		cfg.PLLScale = 0.1
		cfg.Policy = in.Name
		cfg.RecordTrace = true
		cfgs["phase/"+in.Name] = cfg
	}

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			off := RunWorkload(spec, cfg, telTestWindow)

			tel := NewTelemetry(0)
			on := runTelemetry(spec, cfg, telTestWindow, tel)

			if !reflect.DeepEqual(off.Stats, on.Stats) {
				t.Errorf("telemetry changed Stats:\noff %+v\non  %+v", off.Stats, on.Stats)
			}
			if off.TimeFS != on.TimeFS {
				t.Errorf("telemetry changed simulated time: off %d on %d", off.TimeFS, on.TimeFS)
			}
			if got, want := int64(len(tel.Events))+tel.DroppedEvents, on.Stats.Reconfigs; got != want {
				t.Errorf("artifact holds %d events, Stats.Reconfigs = %d", got, want)
			}
			if tel.Reconfigs != on.Stats.Reconfigs || tel.Window != telTestWindow {
				t.Errorf("sealed metadata off: reconfigs %d (want %d), window %d",
					tel.Reconfigs, on.Stats.Reconfigs, tel.Window)
			}
		})
	}
}

// TestTelemetryRingOverflow pins the bounded-ring contract: a tiny
// capacity drops the OLDEST entries (the kept window is chronological and
// ends at the run's end), counts every drop, and the event total still
// reconciles with Stats.Reconfigs.
func TestTelemetryRingOverflow(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	cfg := DefaultAdaptive(PhaseAdaptive)
	cfg.PLLScale = 0.1

	full := NewTelemetry(0)
	runTelemetry(spec, cfg, telTestWindow, full)
	if len(full.Samples) >= DefaultTelemetryCap {
		t.Fatalf("test window overflows the default ring (%d samples): shrink it", len(full.Samples))
	}
	if full.DroppedSamples != 0 || full.DroppedEvents != 0 {
		t.Fatalf("default-cap run dropped entries: %d/%d", full.DroppedSamples, full.DroppedEvents)
	}

	const tiny = 8
	small := NewTelemetry(tiny)
	res := runTelemetry(spec, cfg, telTestWindow, small)

	if len(small.Samples) != tiny {
		t.Errorf("ring kept %d samples, capacity %d", len(small.Samples), tiny)
	}
	if small.DroppedSamples != int64(len(full.Samples)-tiny) {
		t.Errorf("DroppedSamples = %d, want %d", small.DroppedSamples, len(full.Samples)-tiny)
	}
	if got, want := int64(len(small.Events))+small.DroppedEvents, res.Stats.Reconfigs; got != want {
		t.Errorf("events + dropped %d != Reconfigs %d after overflow", got, want)
	}
	// The kept tail must be the chronological END of the full series.
	tail := full.Samples[len(full.Samples)-tiny:]
	if !reflect.DeepEqual(small.Samples, tail) {
		t.Errorf("overflowed ring does not hold the newest %d samples in order", tiny)
	}
	if len(small.Events) > 0 && len(full.Events) >= len(small.Events) {
		wantEvents := full.Events[len(full.Events)-len(small.Events):]
		if !reflect.DeepEqual(small.Events, wantEvents) {
			t.Errorf("overflowed event ring does not hold the newest events in order")
		}
	}
}

// distinctIQBacking reports whether no two samples' IQ slices share
// backing storage: the preallocated windows must never alias a live sample.
func distinctIQBacking(samples []TelemetrySample) bool {
	seen := map[*TelemetryIQWindow]bool{}
	for i := range samples {
		if iq := samples[i].IQ; len(iq) > 0 {
			if seen[&iq[0]] {
				return false
			}
			seen[&iq[0]] = true
		}
	}
	return true
}

// TestTelemetryRingReuseAcrossRuns continues a sealed, wrapped ring with a
// second run of the same machine: the IQ windows carved for new samples
// must never overwrite a sample the ring still holds, so the kept samples
// are exactly the newest of the uninterrupted series.
func TestTelemetryRingReuseAcrossRuns(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	cfg := DefaultAdaptive(PhaseAdaptive)
	cfg.PLLScale = 0.1

	// The window ends away from any cache-interval boundary, so every kept
	// sample is an "iq" sample holding its own chunk of IQ windows.
	const window = telTestWindow - 1_000
	full := NewTelemetry(0)
	runTelemetry(spec, cfg, window, full)

	const tiny = 8
	small := NewTelemetry(tiny)
	m := NewMachine(spec, cfg)
	m.RunWith(nil, window/2, RunOptions{Telemetry: small})
	m.RunWith(nil, window-window/2, RunOptions{Telemetry: small})
	for _, s := range small.Samples {
		if s.Kind != "iq" {
			t.Fatalf("kept a %q sample: move the window off the cache interval", s.Kind)
		}
	}

	if !distinctIQBacking(full.Samples) || !distinctIQBacking(small.Samples) {
		t.Fatal("live samples share IQ window storage")
	}
	// The second run appends after Seal without re-rotating, so compare
	// in chronological order.
	got := append([]TelemetrySample(nil), small.Samples...)
	sort.SliceStable(got, func(i, j int) bool { return got[i].Instr < got[j].Instr })
	if want := full.Samples[len(full.Samples)-tiny:]; !reflect.DeepEqual(got, want) {
		t.Errorf("ring continued across runs does not hold the newest %d samples", tiny)
	}
}

// TestTelemetryDirectionAccounting cross-checks the process-wide counts
// against the artifact: the delta the run contributed must match the
// artifact's per-policy/structure/direction event counts exactly.
func TestTelemetryDirectionAccounting(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	cfg := DefaultAdaptive(PhaseAdaptive)
	cfg.PLLScale = 0.1

	before := ReconfigEvents()
	tel := NewTelemetry(0)
	res := runTelemetry(spec, cfg, telTestWindow, tel)
	after := ReconfigEvents()

	if res.Stats.Reconfigs == 0 {
		t.Fatal("phase-adaptive gcc run committed no reconfigurations; the cross-check is vacuous")
	}
	var deltaTotal int64
	fromArtifact := map[ReconfigCell]int64{}
	for _, ev := range tel.Events {
		fromArtifact[ReconfigCell{Policy: tel.Policy, Structure: ev.Structure, Direction: ev.Direction}]++
	}
	for cell, n := range after {
		if d := n - before[cell]; d != 0 {
			deltaTotal += d
			if fromArtifact[cell] != d {
				t.Errorf("cell %+v: process counter delta %d, artifact holds %d", cell, d, fromArtifact[cell])
			}
		}
	}
	if deltaTotal != res.Stats.Reconfigs {
		t.Errorf("process counters gained %d events, Stats.Reconfigs = %d", deltaTotal, res.Stats.Reconfigs)
	}
}

// TestTelemetryFrequencyDuringLock: a sample's domain frequencies are the
// periods in effect at its commit time, so a domain whose PLL is still
// locking reads its old frequency. Some samples must fall less than a lock
// time before a clock switch, where a locking window can hold them, or the
// check is vacuous.
func TestTelemetryFrequencyDuringLock(t *testing.T) {
	for _, name := range []string{"gcc", "em3d", "apsi"} {
		spec, _ := workload.ByName(name)
		cfg := DefaultAdaptive(PhaseAdaptive)
		cfg.PLLScale = 0.1
		m := NewMachine(spec, cfg)
		tel := NewTelemetry(0)
		if _, err := m.RunWith(nil, 100_000, RunOptions{Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		lockMax := timing.FS(float64(clock.PLLLockMax) * cfg.PLLScale)
		nearSwitch := 0
		for _, s := range tel.Samples {
			at := timing.FS(s.TimeFS)
			for d, got := range map[clock.Domain]float64{clock.FrontEnd: s.FEMHz, clock.LoadStore: s.LSMHz, clock.Integer: s.IntMHz, clock.FloatingPoint: s.FPMHz} {
				c := m.clocks[d]
				if want := mhz(c.Period(at)); got != want {
					t.Fatalf("%s sample at instruction %d: %v reads %v MHz, the clock runs at %v MHz", name, s.Instr, d, got, want)
				}
				if c.Period(at) != c.Period(at+lockMax) {
					nearSwitch++
				}
			}
		}
		if nearSwitch == 0 {
			t.Fatalf("%s: no sample fell within a lock time before a clock switch", name)
		}
	}
}
