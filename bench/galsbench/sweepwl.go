package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"gals/internal/core"
	"gals/internal/metrics"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// sweepBenchmarks mix front-end-bound, memory-phase, floating-point and
// pointer-chasing behaviour, so the per-benchmark winners differ.
var sweepBenchmarks = []string{"gcc", "em3d", "apsi", "mst"}

const sweepWorkers = 2

// sweepBench is sweep-sync-replay: one caller repeats a cold
// sweep.MeasureSummary over the quick synchronous space, on its own pool,
// replaying in-memory recordings made at set-up, with no persistent store.
type sweepBench struct {
	specs  []workload.Spec
	cfgs   []core.Config
	opts   sweep.Options
	pool   *sweep.Pool
	traces *workload.Pool
	seed   int64

	mu       sync.Mutex
	cond     *sync.Cond
	cells    []time.Duration // cell times observed and not yet claimed by an operation
	observed int64           // cells observed in total
	expected int64           // cells submitted in total

	first *sweep.Summary
}

func newSweepBench(p params, stride int) (*sweepBench, error) {
	b := &sweepBench{specs: mustSpecs(sweepBenchmarks), seed: p.seed}
	b.cond = sync.NewCond(&b.mu)
	for i, c := range sweep.QuickSyncSpace() {
		if i%stride == 0 {
			b.cfgs = append(b.cfgs, c)
		}
	}
	b.traces = workload.NewPool(p.sweepWindow)
	for _, s := range b.specs {
		b.traces.Get(s)
	}
	b.pool = sweep.NewPool(sweepWorkers, 0)
	b.pool.SetObserver(b.observe)
	b.opts = sweep.Options{
		Window: p.sweepWindow, Workers: sweepWorkers, Seed: subSeed(p.seed, saltSweep, 0),
		PLLScale: 0.1, Traces: b.traces, Exec: b.pool,
	}
	return b, nil
}

func (b *sweepBench) observe(d time.Duration) {
	b.mu.Lock()
	b.cells = append(b.cells, d)
	b.observed++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// claimCells waits for the observer to have seen every submitted cell (the
// pool reports a cell's time just after MeasureSummary may have returned)
// and takes the cell times observed so far.
func (b *sweepBench) claimCells() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.observed < b.expected {
		b.cond.Wait()
	}
	c := b.cells
	b.cells = nil
	return c
}

func (b *sweepBench) clients() int { return 1 }

func (b *sweepBench) op(o *opCtx) opResult {
	opts := b.opts
	var mt *metrics.Tracer
	if o.tr != nil {
		mt = metrics.NewTracer("sweep")
		opts.Tracer = mt
	}
	n := int64(len(b.specs) * len(b.cfgs))
	b.mu.Lock()
	b.expected += n
	b.mu.Unlock()
	id := o.tr.begin(0, "sweep", "MeasureSummary", o.req)
	before := sweep.MeasureComputations()
	sum, err := sweep.MeasureSummary(b.specs, b.cfgs, opts)
	computed := sweep.MeasureComputations() - before
	o.tr.end(id)
	r := opResult{class: "sweep"}
	if err != nil {
		// Some of the failed sweep's cells may never run: stop waiting for them.
		b.mu.Lock()
		b.expected = b.observed
		b.mu.Unlock()
		r.err = fmt.Errorf("sweep: %w", err)
		return r
	}
	r.runs = b.claimCells()
	if mt != nil {
		r.trace = mt.Finish()
		o.tr.fold(id, o.req, r.trace, sweepTrace)
	}
	r.cells, r.insts = n, n*b.opts.Window
	switch {
	case computed != 1:
		r.err = fmt.Errorf("sweep.MeasureComputations rose by %d, want 1: the sweep did not simulate", computed)
	case b.first == nil:
		b.first = sum
	case !reflect.DeepEqual(sum, b.first):
		r.err = errors.New("sweep summary differs from the first repetition's")
	}
	return r
}

// sweepCheckConfigs is how many seeded configurations verify re-runs
// directly.
const sweepCheckConfigs = 8

// verify re-runs a seeded sample of configurations, and the best one, cell
// by cell through core.RunSource, and checks the summary's score and best
// times against them bit for bit.
func (b *sweepBench) verify(chk *checks) {
	if b.first == nil {
		chk.note(errors.New("sweep: no repetition completed"))
		return
	}
	rng := rand.New(rand.NewSource(subSeed(b.seed, saltCheck, 0)))
	for _, ci := range rng.Perm(len(b.cfgs))[:min(sweepCheckConfigs, len(b.cfgs))] {
		score, _ := b.direct(ci)
		var err error
		if math.Float64bits(score) != math.Float64bits(b.first.Scores[ci]) {
			err = fmt.Errorf("sweep: config %d scores %v directly, %v in the summary", ci, score, b.first.Scores[ci])
		}
		chk.note(err)
	}
	_, times := b.direct(b.first.Best)
	var err error
	if !reflect.DeepEqual(times, b.first.BestTimes) {
		err = fmt.Errorf("sweep: best config's direct times %v differ from the summary's %v", times, b.first.BestTimes)
	}
	chk.note(err)
}

// direct runs configuration ci on every benchmark as MeasureSummary does
// and returns its score (the sum of log run times, in benchmark order) and
// run times.
func (b *sweepBench) direct(ci int) (float64, []timing.FS) {
	cfg := b.cfgs[ci]
	cfg.Seed, cfg.PLLScale = b.opts.Seed, b.opts.PLLScale
	score := 0.0
	var times []timing.FS
	for _, s := range b.specs {
		res := core.RunSource(b.traces.Get(s).Replay(), cfg, b.opts.Window)
		score += math.Log(float64(res.TimeFS))
		times = append(times, res.TimeFS)
	}
	return score, times
}

func (b *sweepBench) digest() string { return digestOf([]*sweep.Summary{b.first}) }

func (b *sweepBench) close() { b.pool.Close() }
