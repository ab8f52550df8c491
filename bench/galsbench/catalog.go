package main

// The benchmark's names: its workloads and the metrics each run reports.
// BENCHMARK.json at the repository root repeats this catalog for tools
// outside the module; TestCatalogMatchesBenchmarkJSON keeps the two equal.

// workloadDef names one workload and builds its set-up state.
type workloadDef struct {
	name string
	why  string
	// threads is how many goroutines simulate at once: the reference
	// kernel that scales the workload's host times runs on as many.
	threads int
	setup   func(p params) (bench, error)
}

var workloads = []workloadDef{
	{
		name:    "run-phase-seq",
		why:     "single Phase-Adaptive runs with live trace generation at degree 1: the whole sequential simulator works, sweep and service are bypassed",
		threads: 1,
		setup:   func(p params) (bench, error) { return newRunBench(p), nil },
	},
	{
		name:    "sweep-sync-replay",
		why:     "repeated cold MeasureSummary over a quarter of the quick synchronous space: pool, replay and per-cell machine set-up; control and generation bypassed",
		threads: sweepWorkers,
		setup:   func(p params) (bench, error) { return newSweepBench(p, p.sweepStride) },
	},
	{
		name:    "service-mixed",
		why:     "in-process galsd under 2 closed-loop clients, 75% cache hits and 25% cold simulations: cache reads beside fsynced cache writes",
		threads: serviceWorkers,
		setup:   func(p params) (bench, error) { return newServiceBench(p) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricDef is one metric: its name, unit and direction, and for an
// end-to-end metric the share of the baseline median by which it may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, each in every workload.
// A "run" is one simulation and a "request" one caller operation: a run in
// run-phase-seq, a whole sweep in sweep-sync-replay, an HTTP request in
// service-mixed. Host times and rates are at the baseline host's speed
// (refspeed.go).
//
// The host-time bounds are 25%, the largest BENCHMARK.json allows and
// three times the widest spread (7.8%) of two ten-seed sets of unchanged
// code on the shared 2-vCPU baseline host (bench/results/2026-10-16).
// Unscaled, the same runs spread up to 22%. The memory footprint spreads up
// to 3%; its bound is 15%.
var endToEnd = []metricDef{
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mem_mb_p50", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics a traced run reports, each in every workload:
// the layer probe's timings, the traced window's overhead and runtime
// costs, and the simulated design's own counts.
var perLayer = []metricDef{
	{Name: "workload.generate_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "workload.replay_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "workload.record_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.functional_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "bpred.ns_per_branch", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_inst.gcc", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_inst.em3d", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_inst.apsi", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_inst.gsm-encode", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_inst.mst", Unit: "ns", Better: "lower"},
	{Name: "core.timing_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "core.new_machine_us", Unit: "us", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "recstore.record_ms", Unit: "ms", Better: "lower"},
	{Name: "recstore.map_us", Unit: "us", Better: "lower"},
	{Name: "recstore.mapped", Unit: "count", Better: "higher"},
	{Name: "resultcache.load_us_p50", Unit: "us", Better: "lower"},
	{Name: "resultcache.store_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "sweep.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "sweep.steals", Unit: "count", Better: "lower"},
	{Name: "sweep.stolen_cells", Unit: "count", Better: "lower"},
	{Name: "service.cache_lookup_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.sim_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.persist_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.dedups", Unit: "count", Better: "higher"},
	{Name: "service.simulations", Unit: "count", Better: "lower"},
	{Name: "resultcache.hits", Unit: "count", Better: "higher"},
	{Name: "resultcache.misses", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "cache.l1d_miss_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "cache.l2_miss_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "bpred.mispredict_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "control.reconfigs_per_minst", Unit: "1/Minst", Better: "lower"},
}
