// Package sweep implements the paper's design-space explorations
// (Section 4): the exhaustive search for the best-overall fully
// synchronous processor (1,024 configurations: 16 I-cache/branch-predictor
// organizations x 4 D/L2 x 4 integer IQ x 4 FP IQ) and the per-application
// exhaustive search defining Program-Adaptive mode (256 adaptive MCD
// configurations: 4 x 4 x 4 x 4).
//
// Every run replays the same deterministic trace per benchmark, so
// configuration comparisons are exact. A sweep is decomposed into one cell
// per (configuration, benchmark) pair executed on a shared work-stealing
// pool (see pool.go); the paper burned 300 CPU-months on this, we burn a
// few CPU-minutes at scaled-down windows. At paper-scale windows, use
// MeasureSummary (streaming aggregation, O(configs + benchmarks) memory)
// with a recording store in Options.Env, so the traces are mmap'd files
// rather than heap. The Phase-Adaptive stage (MeasurePhase) runs through
// the same cell path over the one base Phase-Adaptive configuration.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/metrics"
	"gals/internal/resultcache"
	"gals/internal/timing"
	"gals/internal/workload"
)

// Options control a sweep.
type Options struct {
	// Window is the instruction window per run.
	Window int64
	// Workers is the parallelism (default: GOMAXPROCS).
	Workers int
	// Seed feeds PLL/jitter (shared across runs for comparability).
	Seed int64
	// JitterFrac enables clock jitter.
	JitterFrac float64
	// PLLScale scales PLL lock times (see core.Config).
	PLLScale float64
	// Traces optionally shares recorded instruction streams across sweeps:
	// each benchmark is generated once into an immutable slab and replayed
	// by every configuration run. When nil (or when the pool's window is
	// shorter than Window), MeasureSummary and MeasurePhase build a private
	// pool (backed by Env.Recordings, if any), so per-run trace regeneration
	// is avoided either way; pass a pool to also share recordings between
	// separate sweep calls.
	Traces *workload.Pool
	// Env is the persistence the sweep runs against (see Env). Result-
	// neutral and excluded from every persist key; the zero Env keeps
	// everything in memory.
	Env Env `json:"-"`
	// Exec optionally routes the sweep's cells to a specific pool — the
	// service installs its own so total parallelism stays bounded under
	// mixed run/sweep/suite load. When nil, cells run on SharedPool()
	// (or a transient pool when Workers deviates from GOMAXPROCS).
	// Result-neutral.
	Exec *Pool
	// Priority orders this sweep's cells against other work sharing the
	// pool (higher first). Result-neutral.
	Priority int
	// Policy and PolicyParams select the adaptation policy
	// (internal/control registry) of Phase-Adaptive runs whose config does
	// not already carry one — primarily the MeasurePhase
	// stage. "" keeps the paper controllers. Result-relevant: part of every
	// persist key. To sweep policies against each other, put them in the
	// configuration list instead (PhaseSpace).
	Policy       string
	PolicyParams string
	// PolicyBlob is the policy's structured artifact (e.g. the "learned"
	// policy's trained weights). Result-relevant: its canonical digest
	// (control.BlobDigest) is part of every persist key.
	PolicyBlob string
	// Ctx bounds the sweep: on cancellation queued cells are purged from
	// the executor, running cells stop at their next accounting-interval
	// boundary, and MeasureSummary/MeasurePhase return ctx's error without
	// persisting the partial aggregate. Result-neutral (a completed sweep
	// is bit-identical with or without a Ctx); nil means no bound.
	Ctx context.Context `json:"-"`
	// Tracer, when non-nil, collects per-cell timed spans (record →
	// replay/measure, plus sweep-level cache-hit and persist spans) for
	// this sweep's wall-time attribution. Result-neutral and excluded from
	// every persist key; nil (the default) costs a nil check per span site.
	Tracer *metrics.Tracer `json:"-"`
	// CheckpointEvery, when > 0 and a persistent store is set
	// (Env.Cache), makes MeasureSummary and MeasurePhase persist their
	// streaming accumulators plus a completed-cell bitmap to the store at
	// this interval (kinds "sweepckpt"/"phaseckpt"), and resume from the
	// newest valid checkpoint on start — so a crashed or cancelled sweep
	// skips its completed cells on rerun. Cancellation always flushes a
	// final checkpoint when any progress was made, even at interval 0.
	// Result-neutral: a resumed sweep's summary is bit-identical to an
	// uninterrupted one (see checkpoint.go).
	CheckpointEvery time.Duration `json:"-"`
}

// WithDefaults fills in zero fields: Window 30,000, Workers GOMAXPROCS,
// Seed 42, PLLScale 0.1. It is the single source of truth for sweep
// defaults; experiment's memo key derives from it.
func (o Options) WithDefaults() Options {
	if o.Window <= 0 {
		o.Window = 30_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PLLScale == 0 {
		o.PLLScale = 0.1
	}
	return o
}

// Env is the persistence a sweep (and the experiment and training layers
// above it) runs against. Each field is optional; the zero Env keeps
// everything in memory.
type Env struct {
	// Cache is consulted by MeasureSummary and MeasurePhase before
	// simulating anything and written back after every computed summary.
	// Keys derive from the benchmark specs, the configuration list and the
	// result-relevant options (Window, Seed, JitterFrac, PLLScale — Workers,
	// Exec, Priority, Traces and Env change only how fast the answer
	// arrives), plus resultcache.SchemaVersion, so repeated sweeps are
	// incremental across processes.
	Cache resultcache.Store
	// Recordings backs every trace pool the sweep creates (typically an
	// mmap-backed recstore.Store): each benchmark's instruction stream then
	// lives in file-backed pages, recorded at most once per store directory
	// across processes.
	Recordings workload.Backing
}

// Pool creates a trace pool for the given window, backed by e.Recordings
// (in memory when nil).
func (e Env) Pool(window int64) *workload.Pool {
	return workload.NewBackedPool(window, e.Recordings)
}

var measureComputes atomic.Int64

// MeasureComputations reports how many MeasureSummary and MeasurePhase
// calls actually simulated (rather than being served from Env.Cache).
func MeasureComputations() int64 { return measureComputes.Load() }

// measureRequest is the canonical cache-key payload for one sweep call:
// everything that can change the returned object, nothing that can't.
// Policy/PolicyParams/PolicyBlob change Phase-Adaptive results (the blob
// enters as its canonical digest, so keys stay small and two requests share
// an entry only when they agree on the exact artifact bytes). Config-level
// blobs (PhaseSpace entries) are digested the same way via keyConfigs.
type measureRequest struct {
	Specs            []workload.Spec
	Cfgs             []core.Config
	Window           int64
	Seed             int64
	JitterFrac       float64
	PLLScale         float64
	Policy           string `json:",omitempty"`
	PolicyParams     string `json:",omitempty"`
	PolicyBlobDigest string `json:",omitempty"`
}

func (o Options) measureKey(kind string, specs []workload.Spec, cfgs []core.Config) string {
	return resultcache.Key(kind, measureRequest{
		Specs: specs, Cfgs: keyConfigs(cfgs),
		Window: o.Window, Seed: o.Seed,
		JitterFrac: o.JitterFrac, PLLScale: o.PLLScale,
		Policy: o.Policy, PolicyParams: o.PolicyParams,
		PolicyBlobDigest: control.BlobDigest(o.PolicyBlob),
	})
}

// keyConfigs canonicalizes a configuration list for key payloads: a config
// carrying a blob artifact is keyed by the artifact's digest, not its
// bytes, so a policy-axis sweep over learned machines doesn't embed whole
// weight models in every request hash input.
func keyConfigs(cfgs []core.Config) []core.Config {
	blobbed := false
	for i := range cfgs {
		if cfgs[i].PolicyBlob != "" {
			blobbed = true
			break
		}
	}
	if !blobbed {
		return cfgs
	}
	out := append([]core.Config(nil), cfgs...)
	for i := range out {
		if out[i].PolicyBlob != "" {
			out[i].PolicyBlob = "digest:" + control.BlobDigest(out[i].PolicyBlob)
		}
	}
	return out
}

func (o Options) apply(cfg core.Config) core.Config {
	cfg.Seed = o.Seed
	cfg.JitterFrac = o.JitterFrac
	cfg.PLLScale = o.PLLScale
	// The sweep-level policy selection reaches Phase-Adaptive runs whose
	// configuration does not already carry its own (PhaseSpace entries do).
	if cfg.Mode == core.PhaseAdaptive && cfg.Policy == "" && cfg.PolicyParams == "" && cfg.PolicyBlob == "" {
		cfg.Policy, cfg.PolicyParams, cfg.PolicyBlob = o.Policy, o.PolicyParams, o.PolicyBlob
	}
	return cfg
}

// SyncSpace enumerates all 1,024 fully synchronous configurations.
func SyncSpace() []core.Config {
	var out []core.Config
	for ic := range timing.SyncICacheSpecs() {
		for _, dc := range timing.DCacheConfigs() {
			for _, iq := range timing.IQSizes() {
				for _, fq := range timing.IQSizes() {
					out = append(out, core.Config{
						Mode: core.Synchronous, SyncICache: ic, DCache: dc,
						IntIQ: iq, FPIQ: fq,
					})
				}
			}
		}
	}
	return out
}

// QuickSyncSpace enumerates the direct-mapped-I-cache subset of the
// synchronous space (320 of the 1,024 points). The best-overall contest is
// decided among these (direct-mapped front ends are markedly faster,
// Section 2.2), so pruned sweeps run ~3x faster; it is the single
// definition behind every "quick" flag.
func QuickSyncSpace() []core.Config {
	var out []core.Config
	for _, c := range SyncSpace() {
		if timing.SyncICacheSpecAt(c.SyncICache).Assoc == 1 {
			out = append(out, c)
		}
	}
	return out
}

// AdaptiveSpace enumerates all 256 Program-Adaptive configurations.
func AdaptiveSpace() []core.Config {
	var out []core.Config
	for _, ic := range timing.ICacheConfigs() {
		for _, dc := range timing.DCacheConfigs() {
			for _, iq := range timing.IQSizes() {
				for _, fq := range timing.IQSizes() {
					out = append(out, core.Config{
						Mode: core.ProgramAdaptive, ICache: ic, DCache: dc,
						IntIQ: iq, FPIQ: fq,
					})
				}
			}
		}
	}
	return out
}

// PolicySetting pairs a registered adaptation policy (internal/control)
// with a parameter assignment in control.ParseParams syntax
// ("key=value[,key=value...]") and, for blob-requiring policies like
// "learned", the weights artifact. It is also the JSON shape the service's
// sweep endpoint accepts.
type PolicySetting struct {
	Name   string `json:"name"`
	Params string `json:"params,omitempty"`
	Blob   string `json:"blob,omitempty"`
}

// PhaseSpace enumerates Phase-Adaptive machines — the base adaptive
// configuration with the on-line controllers enabled — one per policy
// setting, making the adaptation policy itself a sweepable design-space
// axis alongside SyncSpace and AdaptiveSpace.
func PhaseSpace(policies []PolicySetting) []core.Config {
	return CrossPhaseSpace(policies, nil)
}

// CrossPhaseSpace crosses the adaptation-policy axis against initial
// machine configurations: the policy × config product space, one
// Phase-Adaptive machine per (policy setting, base) pair in policy-major
// order. Nil or empty bases default to the single base adaptive
// configuration (making PhaseSpace the one-base special case); a base's
// mode is forced to PhaseAdaptive and any policy selection it carries is
// overwritten by the axis entry.
func CrossPhaseSpace(policies []PolicySetting, bases []core.Config) []core.Config {
	if len(bases) == 0 {
		bases = []core.Config{core.DefaultAdaptive(core.PhaseAdaptive)}
	}
	out := make([]core.Config, 0, len(policies)*len(bases))
	for _, p := range policies {
		for _, base := range bases {
			cfg := base
			cfg.Mode = core.PhaseAdaptive
			cfg.Policy, cfg.PolicyParams, cfg.PolicyBlob = p.Name, p.Params, p.Blob
			out = append(out, cfg)
		}
	}
	return out
}

// cellChunk bounds the cells per submitted group, so a queued
// higher-priority request is admitted after at most a chunk's worth of one
// worker's backlog.
const cellChunk = 64

// runCells executes one simulation cell per (configuration, benchmark)
// pair on the sweep's executor and streams each cell's result into sink.
// sink is called from worker goroutines: calls for distinct (ci, si) pairs
// may be concurrent, and each pair is delivered exactly once. A non-nil
// skip filters cells at group-build time — a skipped cell is never queued
// and never delivered; the checkpoint-resume path uses it to elide work a
// previous run already completed.
//
// Groups are config-major: one group is one configuration's cells across
// the benchmarks, in benchmark order. That is what lets the streaming
// accumulator close a config's row as soon as its group drains (O(workers)
// rows in flight) instead of holding every row open until the last
// benchmark completes. Recording sharing is unaffected — the trace pool
// hands every cell the same slab regardless of which group asked first —
// and thieves batch-stealing a group's far half touch its later benchmarks
// (in order), so concurrent cold-start recording still spreads across
// workers.
func runCells(specs []workload.Spec, cfgs []core.Config, o Options, skip func(ci, si int) bool, sink func(ci, si int, res *core.Result)) error {
	// Replay the caller's trace pool when it covers the window, otherwise a
	// private one (backed by Env.Recordings, if any). The private pool is
	// retired once the cells finish, returning any store-backed slab
	// references instead of accumulating mappings across windows; Execute
	// returns only after every cell finished, so no replay is live then.
	pool := o.Traces
	if pool.Window() < o.Window {
		pool = o.Env.Pool(o.Window)
		defer pool.Retire()
	}
	// Cells run on o.Exec, else on the shared pool. Workers is a per-call
	// parallelism contract, so a non-default value gets a transient pool
	// of exactly that size.
	exec := o.Exec
	if exec == nil {
		if o.Workers == runtime.GOMAXPROCS(0) {
			exec = SharedPool()
		} else {
			exec = NewPool(o.Workers, 0)
			defer exec.Close()
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The measure stage span parents every cell span; with a nil tracer
	// every span call below is a no-op.
	stage := o.Tracer.Start("measure", fmt.Sprintf("%d configs x %d benchmarks", len(cfgs), len(specs)))
	groups := make([][]func(), 0, len(cfgs)*(len(specs)/cellChunk+1))
	for ci := range cfgs {
		ci := ci
		for start := 0; start < len(specs); start += cellChunk {
			end := start + cellChunk
			if end > len(specs) {
				end = len(specs)
			}
			cells := make([]func(), 0, end-start)
			for si := start; si < end; si++ {
				si := si
				if skip != nil && skip(ci, si) {
					continue
				}
				cells = append(cells, func() {
					// Only render the config label when a trace is live:
					// an untraced cell must not pay a per-cell allocation.
					var cellSpan metrics.Span
					if o.Tracer != nil {
						cellSpan = stage.Child("cell", cfgs[ci].Label()+" / "+specs[si].Name)
					}
					recSpan := cellSpan.Child("record", specs[si].Name)
					rec, err := pool.GetContext(ctx, specs[si])
					recSpan.End()
					if err != nil {
						cellSpan.End()
						return // cancelled mid-recording: deliver nothing
					}
					// A nil-Done ctx takes core's uninstrumented fast
					// path, so ctx-less sweeps cost exactly what they
					// did; a cancelled cell delivers nothing.
					simSpan := cellSpan.Child("replay+measure", "")
					res, err := core.NewMachineSource(rec.Replay(), o.apply(cfgs[ci])).RunWith(ctx, o.Window, core.RunOptions{})
					simSpan.End()
					if err != nil {
						cellSpan.End()
						return
					}
					if o.Tracer != nil {
						cellSpan.Annotate(fmt.Sprintf("%s / %s: %d reconfigs",
							cfgs[ci].Label(), specs[si].Name, res.Stats.Reconfigs))
					}
					cellSpan.End()
					sink(ci, si, res)
				})
			}
			if len(cells) > 0 {
				groups = append(groups, cells)
			}
		}
	}
	err := exec.ExecuteContext(ctx, o.Priority, groups)
	stage.End()
	return err
}

// Summary is the streaming aggregation of one sweep: everything the
// sweep's consumers (best-overall ranking, Figure 6, the service) need, in
// O(configs + benchmarks) memory instead of the full [config][benchmark]
// matrix. Its per-config best times are bit-identical to folding the full
// matrix (Summarize): cells complete out of order, but each config's row
// is folded in benchmark order and ties resolve to the lowest config
// index, exactly as BestOverall and BestPerApp do.
type Summary struct {
	// NumSpecs and NumCfgs are the matrix dimensions.
	NumSpecs, NumCfgs int
	// Best is the best-overall configuration index (lowest geometric-mean
	// run time across benchmarks), or -1 when no configuration has a
	// finite score.
	Best int
	// BestTimes are the best configuration's per-benchmark run times
	// (nil when Best is -1).
	BestTimes []timing.FS
	// PerApp[si] is the configuration index with the lowest run time on
	// benchmark si; PerAppTimes[si] is that time.
	PerApp      []int
	PerAppTimes []timing.FS
	// Scores[ci] is configuration ci's sum of log run times (the geomean
	// ranking metric); Invalid[ci] marks configurations disqualified by a
	// non-positive run time, whose Scores entry is meaningless.
	Scores  []float64
	Invalid []bool
}

// summaryAcc folds completed cells into a Summary. A config's row buffer
// lives only while its cells are outstanding; with runCells's config-major
// groups that is O(workers) rows at a time, not the full matrix.
type summaryAcc struct {
	mu    sync.Mutex
	specs int
	rows  map[int][]timing.FS
	left  []int // cells outstanding per config
	sum   *Summary
	// done marks delivered cells (bit ci*specs+si) — the completed-cell
	// bitmap a checkpoint persists so a resumed sweep skips them.
	done []uint64
}

func newSummaryAcc(nspecs, ncfgs int) *summaryAcc {
	a := &summaryAcc{
		specs: nspecs,
		rows:  make(map[int][]timing.FS),
		left:  make([]int, ncfgs),
		done:  make([]uint64, bitWords(nspecs*ncfgs)),
		sum: &Summary{
			NumSpecs: nspecs, NumCfgs: ncfgs,
			Best:        -1,
			PerApp:      make([]int, nspecs),
			PerAppTimes: make([]timing.FS, nspecs),
			Scores:      make([]float64, ncfgs),
			Invalid:     make([]bool, ncfgs),
		},
	}
	for i := range a.left {
		a.left[i] = nspecs
	}
	for i := range a.sum.PerApp {
		a.sum.PerApp[i] = -1
	}
	return a
}

func (a *summaryAcc) add(ci, si int, t timing.FS) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row := a.rows[ci]
	if row == nil {
		row = make([]timing.FS, a.specs)
		a.rows[ci] = row
	}
	row[si] = t
	setBit(a.done, ci*a.specs+si)
	if a.left[ci]--; a.left[ci] == 0 {
		delete(a.rows, ci)
		a.fold(ci, row)
	}
}

// fold consumes one completed config row: per-benchmark bests, the geomean
// score, and (when it wins) the retained best row. Rows arrive in any
// order; the lowest-index tie-breaks reproduce the sequential fold.
func (a *summaryAcc) fold(ci int, row []timing.FS) {
	s := a.sum
	score, invalid := 0.0, false
	for si, t := range row {
		score += logFS(t)
		if t <= 0 {
			invalid = true
		}
		if s.PerApp[si] == -1 || t < s.PerAppTimes[si] ||
			(t == s.PerAppTimes[si] && ci < s.PerApp[si]) {
			s.PerApp[si], s.PerAppTimes[si] = ci, t
		}
	}
	if invalid {
		// Disqualified: park a JSON-safe zero (the +Inf score would poison
		// persistence) and let Invalid carry the disqualification.
		score = 0
	}
	s.Scores[ci], s.Invalid[ci] = score, invalid
	if invalid {
		return
	}
	if s.Best == -1 || score < s.Scores[s.Best] ||
		(score == s.Scores[s.Best] && ci < s.Best) {
		s.Best = ci
		s.BestTimes = append(s.BestTimes[:0], row...)
	}
}

// MeasureSummary runs every configuration on every benchmark and folds each
// cell into running accumulators instead of retaining the whole times
// matrix: memory is O(configs + benchmarks) plus one row per in-flight
// configuration, regardless of window. Each benchmark's deterministic trace
// is recorded once (in Options.Traces when provided) and replayed by all
// configuration runs concurrently. It returns an error when the executor
// rejects the sweep (queue full / closed) or a cell panics.
func MeasureSummary(specs []workload.Spec, cfgs []core.Config, o Options) (*Summary, error) {
	o = o.WithDefaults()
	store := o.Env.Cache
	acc := newSummaryAcc(len(specs), len(cfgs))
	var key, ckKey string
	var done []uint64
	if store != nil {
		lookup := o.Tracer.Start("cache-lookup", "sweepsum")
		key = o.measureKey("sweepsum", specs, cfgs)
		var cached Summary
		if store.Load(key, &cached) && summaryShapeOK(&cached, len(specs), len(cfgs), len(cfgs) > 0) {
			lookup.Annotate("sweepsum: hit")
			lookup.End()
			return &cached, nil
		}
		lookup.End()
		// Resume: a valid checkpoint replaces the cold accumulator.
		ckKey = o.measureKey("sweepckpt", specs, cfgs)
		var ck sweepCheckpoint
		if store.Load(ckKey, &ck) {
			if restored := ck.restore(len(specs), len(cfgs)); restored != nil {
				acc, done = restored, ck.Done
			}
		}
	}
	measureComputes.Add(1)
	err := runResumable(specs, cfgs, o, ckKey, done, func() any { return acc.checkpoint(key) },
		func(ci, si int, res *core.Result) { acc.add(ci, si, res.TimeFS) })
	if err != nil {
		return nil, err
	}
	o.persist("sweepsum", key, ckKey, acc.sum)
	return acc.sum, nil
}

// summaryShapeOK validates a summary loaded from the persistent store (or
// restored from a checkpoint) against the request's dimensions: every
// slice has its dimension's length and every configuration index is in
// [-1, ncfgs), so callers can index the configuration list with it.
// folded says whether any configuration has been folded in, as in every
// finished sweep over a non-empty space: PerApp then names a configuration
// for every benchmark, and otherwise none.
func summaryShapeOK(s *Summary, nspecs, ncfgs int, folded bool) bool {
	if s.NumSpecs != nspecs || s.NumCfgs != ncfgs ||
		len(s.PerApp) != nspecs || len(s.PerAppTimes) != nspecs ||
		len(s.Scores) != ncfgs || len(s.Invalid) != ncfgs {
		return false
	}
	if s.Best < -1 || s.Best >= ncfgs || (s.Best >= 0 && len(s.BestTimes) != nspecs) {
		return false
	}
	for _, ci := range s.PerApp {
		if ci < -1 || ci >= ncfgs || (ci == -1) == folded {
			return false
		}
	}
	return true
}

// logFS is a natural log over femtosecond times, used for geometric means.
// Zero or negative times (no valid measurement) map to +Inf so that
// math.Log(0) = -Inf can never silently win a lowest-geomean comparison.
func logFS(t timing.FS) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return math.Log(float64(t))
}

// MeasurePhase runs the Phase-Adaptive machine (base configuration,
// controllers on) on every benchmark: one runCells sweep over that single
// configuration, replaying shared recorded traces. Reconfiguration events
// are always recorded so downstream consumers (Figure 7 traces) can reuse
// these results instead of re-running. It returns an error when the
// executor rejects the batch (queue full / closed pool) or ctx ends it.
func MeasurePhase(specs []workload.Spec, o Options) ([]*core.Result, error) {
	o = o.WithDefaults()
	store := o.Env.Cache
	acc := newPhaseAcc(len(specs))
	var key, ckKey string
	var done []uint64
	if store != nil {
		lookup := o.Tracer.Start("cache-lookup", "phase")
		key = o.measureKey("phase", specs, nil)
		var cached []*core.Result
		// A stored list of nulls decodes cleanly; it is a miss, not an answer.
		if store.Load(key, &cached) && len(cached) == len(specs) && !slices.Contains(cached, nil) {
			lookup.Annotate("phase: hit")
			lookup.End()
			return cached, nil
		}
		lookup.End()
		ckKey = o.measureKey("phaseckpt", specs, nil)
		var ck phaseCheckpoint
		if store.Load(ckKey, &ck) {
			if restored := ck.restore(len(specs)); restored != nil {
				acc, done = restored, ck.Done
			}
		}
	}
	measureComputes.Add(1)
	base := core.DefaultAdaptive(core.PhaseAdaptive)
	base.RecordTrace = true
	err := runResumable(specs, []core.Config{base}, o, ckKey, done, func() any { return acc.checkpoint(key) },
		func(_, si int, res *core.Result) { acc.add(si, res) })
	if err != nil {
		return nil, err
	}
	o.persist("phase", key, ckKey, acc.out)
	return acc.out, nil
}

// Improvement returns the percent run-time improvement of adapted over
// baseline: (Tbase/Tadapt - 1) * 100.
func Improvement(baseline, adapted timing.FS) float64 {
	if adapted == 0 {
		return 0
	}
	return (float64(baseline)/float64(adapted) - 1) * 100
}
