// Dynamic experiments: the headline performance comparison (Figure 6), the
// Program-Adaptive configuration distribution (Table 9), and the
// reconfiguration traces (Figure 7). These run the simulator through the
// design-space sweeps of paper Section 4.
package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gals/internal/core"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// SuiteResult holds everything the Figure 6 / Table 9 pipeline produces:
// the best fully synchronous machine, the per-application Program-Adaptive
// selections, and the Phase-Adaptive runs.
type SuiteResult struct {
	// Specs are the benchmark runs, in Figure 6 order.
	Specs []workload.Spec
	// BestSync is the best-overall fully synchronous configuration.
	BestSync core.Config
	// SyncTimes are each benchmark's run times on BestSync.
	SyncTimes []timing.FS
	// ProgConfigs and ProgTimes are the per-application best adaptive
	// configurations and their run times (Program-Adaptive).
	ProgConfigs []core.Config
	ProgTimes   []timing.FS
	// PhaseResults are the Phase-Adaptive runs (controllers on).
	PhaseResults []*core.Result
	// MeanProg and MeanPhase are the suite-mean percent improvements.
	MeanProg, MeanPhase float64
}

// ProgImprovement returns benchmark i's Program-Adaptive improvement in
// percent over the best synchronous machine.
func (r *SuiteResult) ProgImprovement(i int) float64 {
	return sweep.Improvement(r.SyncTimes[i], r.ProgTimes[i])
}

// PhaseImprovement returns benchmark i's Phase-Adaptive improvement.
func (r *SuiteResult) PhaseImprovement(i int) float64 {
	return sweep.Improvement(r.SyncTimes[i], r.PhaseResults[i].TimeFS)
}

// suiteCall is one suite computation in the process-local memo: done
// closes once it finishes, and r is nil when it failed.
type suiteCall struct {
	done chan struct{}
	r    *SuiteResult
}

var (
	// suiteMu guards only the memo map; computations run outside it, so
	// suites for different Options never wait on each other.
	suiteMu       sync.Mutex
	suiteCache    = map[Options]*suiteCall{}
	suiteComputes atomic.Int64
)

// ResetSuiteMemo drops the process-local suite memo (the persistent store,
// if any, is untouched). Intended for tests and cache administration: after
// a reset, the next RunSuite must come from the persistent layer or be
// recomputed.
func ResetSuiteMemo() {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	suiteCache = map[Options]*suiteCall{}
}

// normalized resolves defaulted fields, so Window 0 and the explicit
// default window run (and memoize) identically. Seed and PLLScale resolve
// through sweep.Options.WithDefaults — the same defaulting the runs
// themselves get — so the memo key can never alias two option sets that
// compute different results. Window resolves to the experiment default
// (sweep's shorter default window never applies in the suite pipeline).
func (o Options) normalized() Options {
	if o.Window <= 0 {
		o.Window = DefaultOptions().Window
	}
	so := o.sweepOptions().WithDefaults()
	o.Seed = so.Seed
	o.PLLScale = so.PLLScale
	return o
}

// memoKey is the suite-cache key: the normalized options with every
// result-neutral field dropped.
func (o Options) memoKey() Options {
	o = o.normalized()
	o.Workers = 0 // parallelism does not change results
	o.Exec = nil  // nor does the pool the cells run on
	o.Priority = 0
	o.Ctx = nil           // nor does the deadline the caller ran under
	o.CheckpointEvery = 0 // nor does crash-safety cadence
	o.Tracer = nil        // nor does span collection
	o.Env = sweep.Env{}   // nor where results and recordings persist
	return o
}

// SuiteComputations reports how many times the full evaluation pipeline has
// actually been executed (as opposed to served from the memo). Tests and
// benchmarks use it to verify that figure6/table9/figure7 share one sweep.
func SuiteComputations() int64 { return suiteComputes.Load() }

// RunSuite executes the full evaluation pipeline (memoized per normalized
// Options within the process: Figure 6, Table 9, Figure 7 and callers like
// the benchmark harness share one best-synchronous sweep and one set of
// Program-Adaptive searches). A caller whose Options are already being
// computed waits for that computation, or for its own Ctx to end; if the
// computation fails (say, its caller's ctx was cancelled), the waiter
// computes the suite itself.
func RunSuite(o Options) (*SuiteResult, error) {
	o = o.normalized()
	memo := o.memoKey()
	var cancelled <-chan struct{}
	if o.Ctx != nil {
		cancelled = o.Ctx.Done()
	}
	for {
		suiteMu.Lock()
		c, inFlight := suiteCache[memo]
		if !inFlight {
			c = &suiteCall{done: make(chan struct{})}
			suiteCache[memo] = c
		}
		suiteMu.Unlock()
		if !inFlight {
			return c.compute(o, memo)
		}
		select {
		case <-c.done:
			if c.r != nil {
				return c.r, nil
			}
		case <-cancelled:
			return nil, o.Ctx.Err()
		}
	}
}

// compute runs the pipeline for the memo entry c (or loads it from the
// persistent store). A failed computation leaves the memo, so the next
// request for these Options starts afresh.
func (c *suiteCall) compute(o, memo Options) (*SuiteResult, error) {
	defer func() {
		if c.r == nil {
			suiteMu.Lock()
			if suiteCache[memo] == c {
				delete(suiteCache, memo)
			}
			suiteMu.Unlock()
		}
		close(c.done)
	}()
	key := resultcache.Key("suite", memo)
	store := o.Env.Cache
	if store != nil {
		var cached SuiteResult
		if store.Load(key, &cached) {
			c.r = &cached
			return c.r, nil
		}
	}
	suiteComputes.Add(1)
	specs := workload.Suite()
	so := o.sweepOptions()
	// One recorded-trace pool shared by the synchronous sweep, the adaptive
	// sweep and the Phase-Adaptive runs; scoped to this computation so
	// in-memory slabs (~megabytes per benchmark) are released once
	// memoized. With a recording store in Env (gals.OpenCache, the
	// service), the slabs are mmap'd files instead of heap, and retiring
	// the pool on the way out returns its slab references so a multi-window
	// run sequence cannot accumulate mappings.
	so.Traces = o.Env.Pool(o.Window)
	defer so.Traces.Retire()

	syncCfgs := sweep.SyncSpace()
	if !o.FullSyncSpace {
		syncCfgs = sweep.QuickSyncSpace()
	}
	// Streaming summaries instead of full matrices: the pipeline only needs
	// the winners, so memory stays O(configs + benchmarks) at any window.
	syncSum, err := sweep.MeasureSummary(specs, syncCfgs, so)
	if err != nil {
		return nil, err
	}
	if syncSum.Best < 0 {
		return nil, fmt.Errorf("experiment: synchronous sweep produced no finite run times")
	}

	adCfgs := sweep.AdaptiveSpace()
	adSum, err := sweep.MeasureSummary(specs, adCfgs, so)
	if err != nil {
		return nil, err
	}

	phase, err := sweep.MeasurePhase(specs, so)
	if err != nil {
		return nil, err
	}

	r := &SuiteResult{
		Specs:        specs,
		BestSync:     syncCfgs[syncSum.Best],
		SyncTimes:    syncSum.BestTimes,
		PhaseResults: phase,
	}
	for si := range specs {
		r.ProgConfigs = append(r.ProgConfigs, adCfgs[adSum.PerApp[si]])
		r.ProgTimes = append(r.ProgTimes, adSum.PerAppTimes[si])
	}
	for i := range specs {
		r.MeanProg += r.ProgImprovement(i)
		r.MeanPhase += r.PhaseImprovement(i)
	}
	r.MeanProg /= float64(len(specs))
	r.MeanPhase /= float64(len(specs))
	if store != nil {
		store.Store(key, r)
	}
	c.r = r
	return r, nil
}

// cachedSuite returns the memoized suite for o, or nil without computing
// or waiting for anything.
func cachedSuite(o Options) *SuiteResult {
	suiteMu.Lock()
	c := suiteCache[o.memoKey()]
	suiteMu.Unlock()
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.r
	default:
		return nil
	}
}

// Figure6 regenerates paper Figure 6: per-application percent run-time
// improvement of Program-Adaptive and Phase-Adaptive over the best fully
// synchronous design.
func Figure6(o Options) (*Table, error) {
	r, err := RunSuite(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure6",
		Title:  "Performance improvement of Program- and Phase-Adaptive MCD over fully synchronous",
		Header: []string{"benchmark", "program-adaptive %", "phase-adaptive %", "program config"},
	}
	for i, s := range r.Specs {
		t.AddRow(s.Name,
			fmt.Sprintf("%+.1f", r.ProgImprovement(i)),
			fmt.Sprintf("%+.1f", r.PhaseImprovement(i)),
			r.ProgConfigs[i].Label())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("best synchronous: %s (global clock %.2f GHz)",
			r.BestSync.Label(), timing.FreqMHz(r.BestSync.GlobalPeriod())/1000),
		fmt.Sprintf("mean improvement: program-adaptive %+.1f%%, phase-adaptive %+.1f%% (paper: +17.6%% / +20.4%%)",
			r.MeanProg, r.MeanPhase),
	)
	return t, nil
}

// Table9 regenerates paper Table 9: the distribution of Program-Adaptive
// configuration choices across the suite, per structure.
func Table9(o Options) (*Table, error) {
	r, err := RunSuite(o)
	if err != nil {
		return nil, err
	}
	n := float64(len(r.Specs))
	var iq, fq [4]int
	var dc [timing.NumDCacheConfigs]int
	var ic [timing.NumICacheConfigs]int
	for _, cfg := range r.ProgConfigs {
		iq[timing.IQIndex(cfg.IntIQ)]++
		fq[timing.IQIndex(cfg.FPIQ)]++
		dc[cfg.DCache]++
		ic[cfg.ICache]++
	}
	t := &Table{
		ID:     "table9",
		Title:  "Distribution of adaptive architecture choices for Program-Adaptive",
		Header: []string{"structure", "config 0", "config 1", "config 2", "config 3"},
	}
	pct := func(c int) string { return fmt.Sprintf("%.0f%%", 100*float64(c)/n) }
	t.AddRow("Integer IQ (16/32/48/64)", pct(iq[0]), pct(iq[1]), pct(iq[2]), pct(iq[3]))
	t.AddRow("FP IQ (16/32/48/64)", pct(fq[0]), pct(fq[1]), pct(fq[2]), pct(fq[3]))
	t.AddRow("D-cache (32k1W/64k2W/128k4W/256k8W)", pct(dc[0]), pct(dc[1]), pct(dc[2]), pct(dc[3]))
	t.AddRow("I-cache (16k1W/32k2W/48k3W/64k4W)", pct(ic[0]), pct(ic[1]), pct(ic[2]), pct(ic[3]))
	t.Notes = append(t.Notes,
		"paper: IQ 85/5/5/5, FP IQ 73/15/8/5, D 50/18/23/10, I 55/18/8/20 (percent)")
	return t, nil
}

// Figure7 regenerates paper Figure 7: sample reconfiguration traces for
// the Phase-Adaptive machine — apsi's D/L2 pair and art's integer issue
// queue, both of which cycle with the applications' phases. When the suite
// pipeline has already run for these Options (e.g. after figure6/table9),
// its Phase-Adaptive results are reused verbatim — reconfiguration events
// are always recorded there — so no simulation runs at all; otherwise
// sweep.MeasurePhase runs just the two sampled benchmarks under the same
// options (policy, context, executor and persistence) as the suite would.
func Figure7(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID:     "figure7",
		Title:  "Sample reconfiguration traces (Phase-Adaptive)",
		Header: []string{"benchmark", "structure", "instr (K)", "new configuration"},
	}
	traces := []struct {
		bench string
		kind  string
	}{
		{"apsi", "dcache"},
		{"art", "int-iq"},
	}
	specs := make([]workload.Spec, len(traces))
	for i, tr := range traces {
		spec, ok := workload.ByName(tr.bench)
		if !ok {
			return nil, fmt.Errorf("experiment: missing benchmark %q", tr.bench)
		}
		specs[i] = spec
	}
	var results []*core.Result
	if suite := cachedSuite(o); suite != nil {
		for _, spec := range specs {
			for i := range suite.Specs {
				if suite.Specs[i].Name == spec.Name {
					results = append(results, suite.PhaseResults[i])
				}
			}
		}
	} else {
		var err error
		if results, err = sweep.MeasurePhase(specs, o.sweepOptions()); err != nil {
			return nil, err
		}
	}
	for i, tr := range traces {
		events := 0
		for _, e := range results[i].Stats.ReconfigEvents {
			if e.Kind != tr.kind {
				continue
			}
			t.AddRow(tr.bench, e.Kind, fmt.Sprintf("%.1f", float64(e.Instr)/1000), e.Config)
			events++
		}
		if events == 0 {
			t.AddRow(tr.bench, tr.kind, "-", "no reconfigurations in window")
		}
	}
	t.Notes = append(t.Notes,
		"paper Figure 7(a): apsi's D/L2 pair oscillates 32k1W <-> 128k4W with its working-set phases",
		"paper Figure 7(b): art's integer queue cycles through its sizes with its ILP phases")
	return t, nil
}

// PolicyCompare quantifies what adaptation itself buys (the comparison the
// paper's Table 9 discussion implies): every benchmark runs the
// Phase-Adaptive machine under the "frozen" policy — never reconfiguring,
// so the run carries the multiple-clock-domain overhead and nothing else —
// and under the selected adaptation policy (Options.Policy, default the
// paper controllers). The improvement column is adaptation's net benefit on
// top of the MCD overhead both runs share.
func PolicyCompare(o Options) (*Table, error) {
	o = o.normalized()
	so := o.sweepOptions()
	// One recorded-trace pool for both policy runs of every benchmark,
	// retired (slab references returned) when the comparison is done.
	so.Traces = o.Env.Pool(o.Window)
	defer so.Traces.Retire()
	specs := workload.Suite()

	polName := o.Policy
	if polName == "" {
		polName = "paper"
	}
	frozenOpts := so
	frozenOpts.Policy, frozenOpts.PolicyParams, frozenOpts.PolicyBlob = "frozen", "", ""
	frozen, err := sweep.MeasurePhase(specs, frozenOpts)
	if err != nil {
		return nil, err
	}
	adapted, err := sweep.MeasurePhase(specs, so)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "policies",
		Title: fmt.Sprintf("Adaptation benefit over the frozen MCD baseline (policy %q)", polName),
		Header: []string{"benchmark", "t_frozen(us)", "t_" + polName + "(us)",
			"improvement %", "reconfigs"},
	}
	var mean float64
	for i, spec := range specs {
		imp := sweep.Improvement(frozen[i].TimeFS, adapted[i].TimeFS)
		mean += imp
		t.AddRow(spec.Name,
			fmt.Sprintf("%.2f", float64(frozen[i].TimeFS)/1e9),
			fmt.Sprintf("%.2f", float64(adapted[i].TimeFS)/1e9),
			fmt.Sprintf("%+.1f", imp),
			fmt.Sprint(adapted[i].Stats.Reconfigs))
	}
	mean /= float64(len(specs))
	t.Notes = append(t.Notes,
		"frozen = Phase-Adaptive machine that never reconfigures: pure multiple-clock-domain overhead, no adaptation",
		fmt.Sprintf("mean improvement of %q over frozen: %+.1f%%", polName, mean),
	)
	return t, nil
}
