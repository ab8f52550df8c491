package core

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Simulator-boundary observability: process-wide counters folded in ONCE
// per completed run, at result construction — never inside the
// instruction loop, so the hot path's cost is untouched (the A/B bench in
// PERFORMANCE.md pins the overhead under 1%). The service exports these
// as /metrics series; CLI tools share the same process-wide truth.

var (
	simRuns   atomic.Int64
	simInstrs atomic.Int64

	reconfigMu sync.Mutex
	reconfigs  map[ReconfigCell]int64

	telemetryRuns  atomic.Int64
	telemetryBytes atomic.Int64

	streamBuilds atomic.Int64
	streamReuses atomic.Int64
	streamBytes  atomic.Int64
)

// ReconfigCell keys the process-wide reconfiguration-event counts: the
// adaptation policy a run executed under (policyLabel) and the structure
// and direction of each committed reconfiguration. Every event counts in
// exactly one cell; the per-policy and per-structure metrics are sums.
type ReconfigCell struct {
	Policy    string
	Structure string
	Direction string
}

// noteRun folds one completed run into the boundary counters: two atomic
// adds, then its reconfigurations by structure and direction, which it
// zeroes so a machine driven in multiple Run calls folds each completion's
// delta exactly once. Only a run that reconfigured takes the short mutex
// section (runs are 0.1ms+; this is noise); the others pay the array scan.
func noteRun(cfg Config, st *Stats, counts *[4][3]int64) {
	simRuns.Add(1)
	simInstrs.Add(st.Instructions)
	locked := false
	for k := range counts {
		for d, n := range counts[k] {
			if n == 0 {
				continue
			}
			if !locked {
				reconfigMu.Lock()
				defer reconfigMu.Unlock()
				locked = true
				if reconfigs == nil {
					reconfigs = make(map[ReconfigCell]int64)
				}
			}
			reconfigs[ReconfigCell{policyLabel(cfg), reconfigNames[k], reconfigDirections[d]}] += n
			counts[k][d] = 0
		}
	}
}

// policyLabel names the adaptation policy a run executed under for the
// per-policy reconfiguration metric: the explicit registry name when one
// was selected, the paper controllers ("paper") for a default
// Phase-Adaptive run, "none" otherwise (sync and program-adaptive
// machines never reconfigure on-line).
func policyLabel(cfg Config) string {
	if cfg.Policy != "" {
		return cfg.Policy
	}
	if cfg.Mode == PhaseAdaptive {
		return "paper"
	}
	return "none"
}

// ReconfigEvents snapshots the process-wide reconfiguration-event counts.
func ReconfigEvents() map[ReconfigCell]int64 {
	reconfigMu.Lock()
	defer reconfigMu.Unlock()
	return maps.Clone(reconfigs)
}

// NoteTelemetryArtifact folds one serialized telemetry artifact into the
// process-wide counters (called by whoever persists the artifact, at
// artifact granularity — never on a simulation path).
func NoteTelemetryArtifact(bytes int64) {
	telemetryRuns.Add(1)
	telemetryBytes.Add(bytes)
}

// TelemetryRuns reports how many telemetry artifacts this process has
// serialized; TelemetryBytes their total encoded size.
func TelemetryRuns() int64  { return telemetryRuns.Load() }
func TelemetryBytes() int64 { return telemetryBytes.Load() }

// SimRuns reports the number of simulation runs completed in this process
// (live and replayed; cache hits never reach the simulator and do not
// count).
func SimRuns() int64 { return simRuns.Load() }

// SimInstructions reports the total instructions committed across all
// completed runs in this process.
func SimInstructions() int64 { return simInstrs.Load() }

// FunctionalStreamBuilds reports how many runs in this process started a
// recording's functional stream (stream.go); FunctionalStreamReuses how
// many attached to one an earlier run started. FunctionalStreamBytes is
// the heap size of the streams built so far whose recordings have not
// been garbage collected.
func FunctionalStreamBuilds() int64 { return streamBuilds.Load() }
func FunctionalStreamReuses() int64 { return streamReuses.Load() }
func FunctionalStreamBytes() int64  { return streamBytes.Load() }
