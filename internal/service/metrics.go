package service

import (
	"cmp"
	"maps"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"gals/internal/core"
	"gals/internal/experiment"
	"gals/internal/metrics"
	"gals/internal/recstore"
	"gals/internal/sweep"
)

// The service's Prometheus surface. Two kinds of series live here:
//
//   - Event-sourced metrics (HTTP latency histograms, status counters, the
//     cell-execution histogram) observed on the request path — each
//     observation is a handful of lock-free atomic ops.
//   - Func-backed metrics whose source of truth is an atomic counter that
//     already exists (the pool's cell counts, the cache's hit counts, the
//     simulator-boundary totals): read at scrape time, zero new cost where
//     the events happen, and /metrics can never disagree with /v1/stats.
func (s *Service) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r

	// HTTP request path (observed by the access-log middleware).
	s.httpLatency = r.NewHistogramVec("gals_http_request_seconds",
		"HTTP request latency by endpoint.", "endpoint", nil)
	s.httpRequests = r.NewCounterVec("gals_http_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	s.httpStatus = r.NewCounterVec("gals_http_responses_total",
		"HTTP responses sent, by status code.", "code")
	s.httpInFlight = r.NewGauge("gals_http_in_flight",
		"HTTP requests currently being served.")
	s.rateLimited = r.NewCounter("gals_http_rate_limited_total",
		"Requests refused with 429 by per-client admission control.")

	// Cell pool: the execution histogram is pushed by the pool's observer
	// hook (one Observe per finished cell); everything else reads the
	// pool's own counters at scrape time.
	cellSeconds := r.NewHistogram("gals_pool_cell_seconds",
		"Simulation cell execution latency.", nil)
	s.pool.SetObserver(func(d time.Duration) { cellSeconds.Observe(d.Seconds()) })
	r.NewGaugeFunc("gals_pool_workers",
		"Simulation worker count.",
		func() float64 { return float64(s.pool.Workers()) })
	r.NewGaugeFunc("gals_pool_queue_depth",
		"Cells admitted but not yet running.",
		func() float64 { return float64(s.pool.Pending()) })
	r.NewGaugeFunc("gals_pool_cells_in_flight",
		"Cells currently executing.",
		func() float64 { return float64(s.pool.InFlight()) })
	r.NewCounterFunc("gals_pool_cells_completed_total",
		"Cells that finished executing.",
		func() float64 { return float64(s.pool.Completed()) })
	r.NewCounterFunc("gals_pool_cells_rejected_total",
		"Cells refused because the queue was full.",
		func() float64 { return float64(s.pool.Rejected()) })
	r.NewCounterFunc("gals_pool_cells_purged_total",
		"Queued cells removed unrun when their request was cancelled.",
		func() float64 { return float64(s.pool.Purged()) })

	// Request dedup and computation counters owned by the service and the
	// compute layers.
	r.NewCounterFunc("gals_dedup_hits_total",
		"Requests served by joining an identical in-flight request.",
		func() float64 { return float64(s.dedups.Load()) })
	r.NewCounterFunc("gals_simulations_total",
		"Single-run simulations executed (cache hits and dedup joins excluded).",
		func() float64 { return float64(s.sims.Load()) })
	r.NewCounterFunc("gals_suite_computations_total",
		"Suite pipelines actually computed (memo hits excluded).",
		func() float64 { return float64(experiment.SuiteComputations()) })
	r.NewCounterFunc("gals_sweep_computations_total",
		"Sweep measurements actually computed (persisted summaries excluded).",
		func() float64 { return float64(sweep.MeasureComputations()) })

	// Crash-safety surface: checkpointed sweeps and the startup scrub.
	r.NewCounterFunc("gals_checkpoints_written_total",
		"Sweep progress checkpoints persisted (periodic and cancellation flushes).",
		func() float64 { return float64(sweep.CheckpointsWritten()) })
	r.NewCounterFunc("gals_checkpoints_resumed_total",
		"Sweeps that restored a progress checkpoint instead of starting cold.",
		func() float64 { return float64(sweep.CheckpointsResumed()) })
	r.NewCounterFunc("gals_resumed_cells_total",
		"Completed cells skipped by checkpoint resumes.",
		func() float64 { return float64(sweep.ResumedCells()) })
	r.NewCounterFunc("gals_scrub_quarantined_total",
		"Undecodable cache blobs moved to quarantine by scrub passes.",
		func() float64 { return float64(s.quarantined.Load()) })

	// Persistent result cache. A nil *Cache returns zero Stats, so these
	// are safe (and honest) with persistence disabled.
	r.NewCounterFunc("gals_cache_hits_total",
		"Result-cache loads served from disk.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.NewCounterFunc("gals_cache_misses_total",
		"Result-cache loads that found nothing usable.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.NewCounterFunc("gals_cache_puts_total",
		"Result-cache blobs written.",
		func() float64 { return float64(s.cache.Stats().Puts) })
	r.NewCounterFunc("gals_cache_put_bytes_total",
		"Total bytes of result-cache blobs written.",
		func() float64 { return float64(s.cache.Stats().PutBytes) })
	r.NewCounterFunc("gals_cache_errors_total",
		"Result-cache I/O or decode failures (treated as misses).",
		func() float64 { return float64(s.cache.Stats().Errors) })
	r.NewCounterFunc("gals_cache_corrupt_total",
		"Cache blobs that existed but failed to decode (recovered as misses).",
		func() float64 { return float64(s.cache.Stats().Corrupt) })
	r.NewCounterFunc("gals_cache_evictions_total",
		"Files removed by cache prune passes.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.NewCounterFunc("gals_cache_evicted_bytes_total",
		"Total bytes removed by cache prune passes.",
		func() float64 { return float64(s.cache.Stats().EvictedBytes) })

	// Recording store. Like the cache, nil-safe via recStats.
	r.NewCounterFunc("gals_recordings_mapped_total",
		"Recordings served by mapping an existing slab file.",
		func() float64 { return float64(s.recStats().Mapped) })
	r.NewCounterFunc("gals_recordings_recorded_total",
		"Recordings generated and written by this process.",
		func() float64 { return float64(s.recStats().Recorded) })
	r.NewCounterFunc("gals_recordings_rerecorded_total",
		"Slab files deleted and regenerated (corruption, stale format).",
		func() float64 { return float64(s.recStats().Rerecorded) })
	r.NewCounterFunc("gals_recordings_corrupt_total",
		"Slab loads rejected as corrupt.",
		func() float64 { return float64(s.recStats().Corrupt) })
	r.NewCounterFunc("gals_recordings_released_total",
		"Slab references dropped to zero and unmapped.",
		func() float64 { return float64(s.recStats().Released) })

	// Simulator boundary: folded once per completed run at result
	// construction, never inside the instruction loop.
	r.NewCounterFunc("gals_sim_runs_total",
		"Simulation runs completed in this process (live and replayed).",
		func() float64 { return float64(core.SimRuns()) })
	r.NewCounterFunc("gals_sim_instructions_total",
		"Instructions committed across all completed runs.",
		func() float64 { return float64(core.SimInstructions()) })
	r.NewFunc("gals_functional_streams_total",
		"Phase-Adaptive runs over a recording's functional stream, by event: build (the run started the stream) or reuse.",
		"counter", func() []metrics.Sample {
			return []metrics.Sample{
				{Labels: []metrics.Label{{Key: "event", Value: "build"}}, Value: float64(core.FunctionalStreamBuilds())},
				{Labels: []metrics.Label{{Key: "event", Value: "reuse"}}, Value: float64(core.FunctionalStreamReuses())},
			}
		})
	r.NewGaugeFunc("gals_functional_stream_bytes",
		"Heap bytes held by the functional streams of recordings not yet garbage collected.",
		func() float64 { return float64(core.FunctionalStreamBytes()) })
	s.runSeconds = r.NewHistogram("gals_run_seconds",
		"Single-run simulation wall time; recording time excluded.", nil)
	r.NewFunc("gals_reconfigurations_total",
		"On-line reconfigurations committed, by adaptation policy.",
		"counter", func() []metrics.Sample {
			return reconfigSamples(func(c core.ReconfigCell) core.ReconfigCell {
				return core.ReconfigCell{Policy: c.Policy}
			})
		})

	// Run telemetry: artifact counters from the simulator-boundary atomics,
	// event counts by structure and direction, and the dwell histogram fed
	// at artifact-persist time.
	r.NewCounterFunc("gals_telemetry_runs_total",
		"Telemetry artifacts serialized (one per telemetry-enabled simulation).",
		func() float64 { return float64(core.TelemetryRuns()) })
	r.NewCounterFunc("gals_telemetry_bytes_total",
		"Total encoded bytes of telemetry artifacts serialized.",
		func() float64 { return float64(core.TelemetryBytes()) })
	r.NewFunc("gals_reconfig_events_total",
		"Reconfiguration events committed, by structure and direction (all runs, telemetry or not).",
		"counter", func() []metrics.Sample {
			return reconfigSamples(func(c core.ReconfigCell) core.ReconfigCell {
				return core.ReconfigCell{Structure: c.Structure, Direction: c.Direction}
			})
		})
	s.dwellHist = r.NewHistogramVec("gals_reconfig_dwell_intervals",
		"Decision intervals a structure stayed in one configuration before reconfiguring (observed when telemetry artifacts persist).",
		"structure", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})

	// Build identity, the standard always-1 info gauge.
	version, goVersion, revision := buildInfo()
	r.NewFunc("gals_build_info",
		"Build identity of the running binary; value is always 1.",
		"gauge", func() []metrics.Sample {
			return []metrics.Sample{{
				Labels: []metrics.Label{
					{Key: "version", Value: version},
					{Key: "go_version", Value: goVersion},
					{Key: "revision", Value: revision},
				},
				Value: 1,
			}}
		})
}

// recStats snapshots the recording store's counters, zero when persistence
// is disabled.
func (s *Service) recStats() recstore.Stats {
	if s.recs == nil {
		return recstore.Stats{}
	}
	return s.recs.Stats()
}

// buildInfo extracts the module version, toolchain and VCS revision from
// the binary's embedded build information ("unknown" where absent — e.g.
// test binaries, which carry no main module version).
func buildInfo() (version, goVersion, revision string) {
	version, goVersion, revision = "unknown", "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	goVersion = bi.GoVersion
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return
}

// reconfigSamples sums the process-wide reconfiguration counts over the
// cells project maps together: one sample per projected cell, in cell
// order, labelled by the cell's non-empty fields.
func reconfigSamples(project func(core.ReconfigCell) core.ReconfigCell) []metrics.Sample {
	sums := map[core.ReconfigCell]int64{}
	for c, n := range core.ReconfigEvents() {
		sums[project(c)] += n
	}
	cells := slices.SortedFunc(maps.Keys(sums), func(a, b core.ReconfigCell) int {
		return cmp.Or(strings.Compare(a.Policy, b.Policy),
			strings.Compare(a.Structure, b.Structure),
			strings.Compare(a.Direction, b.Direction))
	})
	out := make([]metrics.Sample, 0, len(cells))
	for _, c := range cells {
		var labels []metrics.Label
		for _, l := range []metrics.Label{{Key: "policy", Value: c.Policy}, {Key: "structure", Value: c.Structure}, {Key: "direction", Value: c.Direction}} {
			if l.Value != "" {
				labels = append(labels, l)
			}
		}
		out = append(out, metrics.Sample{Labels: labels, Value: float64(sums[c])})
	}
	return out
}
