package core

import (
	"runtime"
	"testing"
)

// TestStepAllocsPerInstruction gates the instruction loop at zero heap
// allocation in steady state: a machine warmed on a replayed recording
// runs 200K more instructions per organization, and with a telemetry
// sampler attached, and must allocate less than one byte per instruction
// (the per-Run result is far below that once amortized). A per-fetch or per-access lookup that copies a table or
// escapes a struct shows up here as tens of bytes per instruction. The
// fused cases hide the replay from the machine so they measure the fused
// loop; PhaseAdaptiveStream measures a run over the recording's functional
// stream, built by an earlier run.
func TestStepAllocsPerInstruction(t *testing.T) {
	const warm, measured = 50_000, 200_000
	rec := bench(t, "gcc").Record(warm + measured)
	program := DefaultAdaptive(ProgramAdaptive)
	sets := program
	sets.ICacheBySets = true
	for _, tc := range []struct {
		name      string
		cfg       Config
		telemetry bool
		stream    bool
	}{
		{"Synchronous", DefaultSync(), false, false},
		{"ProgramAdaptive", program, false, false},
		{"PhaseAdaptive", phaseCfg(), false, false},
		{"ICacheBySets", sets, false, false},
		{"PhaseAdaptiveTelemetry", phaseCfg(), true, false},
		{"PhaseAdaptiveStream", phaseCfg(), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src InstSource = fused{rec.Replay()}
			if tc.stream {
				// The recording's first run takes the fused loop, the
				// second builds the stream.
				for range 2 {
					NewMachineSource(rec.Replay(), tc.cfg).Run(warm + measured)
				}
				src = rec.Replay()
			}
			m := NewMachineSource(src, tc.cfg)
			var opts RunOptions
			if tc.telemetry {
				opts.Telemetry = NewTelemetry(0)
			}
			m.RunWith(nil, warm, opts)
			if streamed := m.par != nil; streamed != tc.stream {
				t.Fatalf("streamed = %v, want %v", streamed, tc.stream)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.RunWith(nil, measured, opts)
			runtime.ReadMemStats(&after)
			perInst := float64(after.TotalAlloc-before.TotalAlloc) / measured
			if perInst >= 1 {
				t.Errorf("%.2f B allocated per instruction over %d steady-state instructions, want < 1",
					perInst, measured)
			}
		})
	}
}
