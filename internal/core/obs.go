package core

import (
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

	reconfigMu       sync.Mutex
	reconfigByPolicy map[string]int64

	reconfigDirMu sync.Mutex
	reconfigByDir map[ReconfigCell]int64

	telemetryRuns  atomic.Int64
	telemetryBytes atomic.Int64

	streamBuilds atomic.Int64
	streamReuses atomic.Int64
	streamBytes  atomic.Int64
)

// ReconfigCell keys the process-wide reconfiguration-event counters: one
// cell per (structure, direction) pair, the label set of the
// gals_reconfig_events_total metric.
type ReconfigCell struct {
	Structure string
	Direction string
}

// noteRun folds one completed run into the boundary counters: a handful of
// atomic adds plus, only when the run reconfigured, one short mutex
// section on a policy-keyed map (runs are 0.1ms+; this is noise).
func noteRun(cfg Config, st *Stats) {
	simRuns.Add(1)
	simInstrs.Add(st.Instructions)
	if st.Reconfigs == 0 {
		return
	}
	pol := policyLabel(cfg)
	reconfigMu.Lock()
	if reconfigByPolicy == nil {
		reconfigByPolicy = make(map[string]int64)
	}
	reconfigByPolicy[pol] += st.Reconfigs
	reconfigMu.Unlock()
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

// noteReconfigDirections folds a completed run's per-structure,
// per-direction reconfiguration counts into the process-wide map, then
// zeroes them so a machine driven in multiple Run calls folds each
// completion's delta exactly once. Runs that never reconfigured pay only
// the array scan.
func noteReconfigDirections(counts *[4][3]int64) {
	var locked bool
	for k := range counts {
		for d := range counts[k] {
			n := counts[k][d]
			if n == 0 {
				continue
			}
			if !locked {
				reconfigDirMu.Lock()
				locked = true
				if reconfigByDir == nil {
					reconfigByDir = make(map[ReconfigCell]int64)
				}
			}
			reconfigByDir[ReconfigCell{reconfigNames[k], reconfigDirections[d]}] += n
			counts[k][d] = 0
		}
	}
	if locked {
		reconfigDirMu.Unlock()
	}
}

// ReconfigEventsByCell snapshots the process-wide reconfiguration-event
// counts by (structure, direction).
func ReconfigEventsByCell() map[ReconfigCell]int64 {
	reconfigDirMu.Lock()
	defer reconfigDirMu.Unlock()
	out := make(map[ReconfigCell]int64, len(reconfigByDir))
	for k, v := range reconfigByDir {
		out[k] = v
	}
	return out
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

// ReconfigsByPolicy snapshots the total on-line reconfigurations committed
// per adaptation policy.
func ReconfigsByPolicy() map[string]int64 {
	reconfigMu.Lock()
	defer reconfigMu.Unlock()
	out := make(map[string]int64, len(reconfigByPolicy))
	for k, v := range reconfigByPolicy {
		out[k] = v
	}
	return out
}

// FunctionalStreamBuilds reports how many runs in this process started a
// recording's functional stream (stream.go); FunctionalStreamReuses how
// many attached to one an earlier run started. FunctionalStreamBytes is
// the heap size of the streams built so far whose recordings have not
// been garbage collected.
func FunctionalStreamBuilds() int64 { return streamBuilds.Load() }
func FunctionalStreamReuses() int64 { return streamReuses.Load() }
func FunctionalStreamBytes() int64  { return streamBytes.Load() }
