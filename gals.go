// Package gals is a full reproduction of "Dynamically Trading Frequency
// for Complexity in a GALS Microprocessor" (Dropsho, Semeraro, Albonesi,
// Magklis, Scott; MICRO-37, 2004): an adaptive multiple-clock-domain
// processor model in which each domain's key structure — instruction cache
// and branch predictor, data/L2 cache pair, integer and floating-point
// issue queues — can be upsized at the cost of that domain's clock
// frequency alone, under hardware phase-adaptive control.
//
// The package is a facade over the internal implementation:
//
//   - Workload() finds one of the deterministic synthetic models of the
//     paper's 40 benchmark runs (MediaBench / Olden / SPEC2000, Tables 6-8).
//   - Run() executes one benchmark on one machine configuration
//     (Synchronous, ProgramAdaptive, or PhaseAdaptive).
//   - Experiments()/RunExperiment() regenerate every table and figure of
//     the paper's evaluation; RunExperiment("figure6") runs the
//     design-space sweeps of Section 4 behind the headline comparison.
//     ProgramAdaptiveSearch() runs one benchmark's adaptive search. Each
//     returns an error instead of a result when ExperimentOptions.Ctx (or
//     SweepOptions.Ctx) ends the sweep.
//   - ValidatePolicySelection() checks a pluggable adaptation policy
//     selection (the paper's controllers, parameterized and learned
//     variants, and a frozen baseline; galsd's GET /v1/policies lists
//     them); Config.WithPolicy selects one, making the control algorithm
//     itself a sweepable design-space dimension.
//
// A minimal session:
//
//	spec, _ := gals.Workload("gcc")
//	res, _ := gals.Run(spec, gals.DefaultPhaseAdaptive(), 100_000)
//	fmt.Printf("%.3f instructions/ns\n", res.IPnsec())
//
// Performance knobs (see PERFORMANCE.md for measurements):
//
//   - RecordWorkload() captures a benchmark's deterministic instruction
//     stream once; RunWith over rec.Replay() replays it bit-identically,
//     amortizing trace generation across repeated runs of the same window.
//   - A Phase-Adaptive RunWith over rec.Replay() runs only the timing
//     model from the recording's second such run on: the recording keeps
//     its configuration-independent functional work (cache MRU positions,
//     branch predictions, ILP samples) as a stream, bit-identically.
//   - Env.Pool() shares recordings across sweeps: assign the pool to
//     SweepOptions.Traces so ProgramAdaptiveSearch replays one recording
//     per benchmark instead of regenerating it for every one of its
//     configuration runs.
//   - RunExperiment() memoizes the whole evaluation pipeline per
//     ExperimentOptions: after figure6, table9 and figure7 are served from
//     the same sweep without re-simulating anything.
//   - Clock-edge arithmetic takes a pure-integer fast path whenever
//     Config.JitterFrac is 0 (the default); enable jitter only when the
//     run needs it.
//   - OpenCache() opens an on-disk result cache and recording store as an
//     Env; set it on ExperimentOptions or SweepOptions to make repeated
//     evaluations incremental across processes. cmd/galsd serves the same
//     cache over HTTP with request deduplication and a priority-scheduled
//     worker pool.
package gals

import (
	"context"
	"fmt"
	"path/filepath"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/experiment"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// Re-exported core types. Config selects a machine, Result reports a run;
// see the internal/core documentation on the fields.
type (
	// Config selects one machine configuration.
	Config = core.Config
	// Mode selects Synchronous, ProgramAdaptive or PhaseAdaptive.
	Mode = core.Mode
	// Result summarizes one simulation run.
	Result = core.Result
	// Stats are a run's counters.
	Stats = core.Stats
	// ReconfigEvent is one phase-controller decision (Figure 7 traces).
	ReconfigEvent = core.ReconfigEvent
	// Telemetry is a run's adaptation time-series: per-domain samples at
	// every controller decision boundary plus every reconfiguration event.
	// See NewTelemetry.
	Telemetry = core.Telemetry
	// TelemetrySample is one decision-boundary observation.
	TelemetrySample = core.TelemetrySample
	// TelemetryEvent is one reconfiguration with structure, direction and
	// trigger.
	TelemetryEvent = core.TelemetryEvent
	// WorkloadSpec describes one benchmark run.
	WorkloadSpec = workload.Spec
	// ExperimentTable is one regenerated table or figure.
	ExperimentTable = experiment.Table
	// ExperimentOptions scale the dynamic experiments.
	ExperimentOptions = experiment.Options
	// SweepOptions control design-space sweeps. Set Traces to a shared
	// pool (Env.Pool) to replay one recording per benchmark across sweeps.
	SweepOptions = sweep.Options
	// Env is the persistence sweeps and experiments run against: a result
	// cache and a recording store (see OpenCache). Set it on
	// SweepOptions.Env or ExperimentOptions.Env; the zero Env keeps
	// everything in memory.
	Env = sweep.Env
	// RunOptions are RunWith's execution knobs: Telemetry (a sampler from
	// NewTelemetry).
	RunOptions = core.RunOptions
	// InstSource is an instruction stream: spec.NewTrace() generates one
	// live, rec.Replay() replays a Recording.
	InstSource = core.InstSource
	// Recording is an immutable recorded benchmark trace, replayable
	// concurrently and bit-identical to live generation.
	Recording = workload.Recording
	// ICacheConfig, DCacheConfig and IQSize name structure configurations.
	ICacheConfig = timing.ICacheConfig
	DCacheConfig = timing.DCacheConfig
	IQSize       = timing.IQSize
)

// Machine modes.
const (
	Synchronous     = core.Synchronous
	ProgramAdaptive = core.ProgramAdaptive
	PhaseAdaptive   = core.PhaseAdaptive
)

// DefaultSynchronous returns the best-overall fully synchronous machine of
// the paper's sweep (64KB direct-mapped I-cache, 16-entry queues).
func DefaultSynchronous() Config { return core.DefaultSync() }

// DefaultProgramAdaptive returns the adaptive MCD base configuration with
// structures fixed for a whole run.
func DefaultProgramAdaptive() Config { return core.DefaultAdaptive(core.ProgramAdaptive) }

// DefaultPhaseAdaptive returns the adaptive MCD machine with the paper's
// on-line controllers enabled (Accounting Caches and ILP-tracked issue
// queues), starting from the smallest/fastest configuration.
func DefaultPhaseAdaptive() Config {
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1 // scaled to the shortened default windows
	return cfg
}

// ValidatePolicySelection reports whether name/params/blob select a
// registered adaptation policy ("" selects the paper default) with a
// well-formed parameter assignment and artifact: blob-requiring policies
// (learned; galsim -train-policy writes one) fail without one, non-blob
// policies fail with one, and a malformed artifact fails its policy's
// validation. Config.Validate applies the same check; this form lets CLIs
// and services reject a selection before building machines.
func ValidatePolicySelection(name, params, blob string) error {
	return control.ValidateSelection(name, params, blob)
}

// Workload finds a benchmark run by name (e.g. "gcc", "adpcm decode").
func Workload(name string) (WorkloadSpec, error) {
	s, ok := workload.ByName(name)
	if !ok {
		return WorkloadSpec{}, fmt.Errorf("gals: unknown workload %q (have %v)", name, workload.Names())
	}
	return s, nil
}

// Run simulates n instructions of spec on cfg.
func Run(spec WorkloadSpec, cfg Config, n int64) (*Result, error) {
	return RunWith(context.Background(), spec.NewTrace(), cfg, n, RunOptions{})
}

// RunWith simulates n instructions of src on cfg under o. src is
// spec.NewTrace() for a live run or rec.Replay() to replay a Recording
// (windows within the recorded length never touch the live generator).
// ctx bounds the run: cancellation and deadline expiry are observed every
// 10,000 instructions, well under one accounting interval, and return
// ctx's error with no Result. o.Telemetry records the run's adaptation
// series. Neither changes the Result: it is bit-identical to Run, and a
// never-cancelled context runs the plain loop.
func RunWith(ctx context.Context, src InstSource, cfg Config, n int64, o RunOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("gals: non-positive window %d", n)
	}
	return core.NewMachineSource(src, cfg).RunWith(ctx, n, o)
}

// NewTelemetry returns a sampler for RunOptions.Telemetry: one sample per
// controller decision boundary and one event per reconfiguration, each
// ring-bounded at core.DefaultTelemetryCap (rotations are counted in the
// series' Dropped fields). It observes the timing stage and never feeds
// back into it; the series is sealed and readable once the run returns.
func NewTelemetry() *Telemetry { return core.NewTelemetry(core.DefaultTelemetryCap) }

// RecordWorkload captures the first n instructions of spec's deterministic
// stream into an immutable, shareable recording.
func RecordWorkload(spec WorkloadSpec, n int64) (*Recording, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gals: non-positive recording length %d", n)
	}
	return spec.Record(n), nil
}

// Experiments lists the regenerable tables and figures in paper order.
func Experiments() []string { return experiment.IDs() }

// RunExperiment regenerates one table or figure by ID (e.g. "figure6").
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiment.Run(id, o)
}

// DefaultExperimentOptions match the runs recorded in EXPERIMENTS.md.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// OpenCache opens the on-disk result cache at dir and the recording store
// under it (<dir>/recordings) as an Env. With it set on
// ExperimentOptions.Env or SweepOptions.Env, RunExperiment and
// ProgramAdaptiveSearch reload identical prior work from disk instead of
// re-simulating, across processes, and replay each benchmark from mmap'd
// file-backed pages recorded at most once per directory. Entries are keyed by the normalized request plus a schema
// version, so results can never go stale — a version bump simply orphans
// old entries (see README.md for the directory layout and invalidation
// rules). cmd/galsd serves the same cache over HTTP.
func OpenCache(dir string) (Env, error) {
	c, err := resultcache.Open(dir)
	if err != nil {
		return Env{}, err
	}
	st, err := recstore.Open(filepath.Join(dir, recstore.Subdir))
	if err != nil {
		return Env{}, err
	}
	return Env{Cache: c, Recordings: st}, nil
}

// ProgramAdaptiveSearch exhaustively evaluates the 256 adaptive MCD
// configurations on one benchmark and returns the best one with its run
// time — the paper's Program-Adaptive selection for that application. It
// returns the sweep's error when o.Ctx ends it or a bounded o.Exec rejects
// it.
func ProgramAdaptiveSearch(spec WorkloadSpec, o SweepOptions) (Config, timing.FS, error) {
	cfgs := sweep.AdaptiveSpace()
	sum, err := sweep.MeasureSummary([]workload.Spec{spec}, cfgs, o)
	if err != nil {
		return Config{}, 0, err
	}
	return cfgs[sum.PerApp[0]], sum.PerAppTimes[0], nil
}

// Improvement returns the percent run-time improvement of adapted over
// baseline, the metric of paper Figure 6.
func Improvement(baseline, adapted timing.FS) float64 {
	return sweep.Improvement(baseline, adapted)
}
