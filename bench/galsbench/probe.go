package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/core"
	"gals/internal/isa"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/service"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// probeBenchmarks are the benchmarks the layer probe runs in every
// workload's traced run: the union of the workloads' benchmarks, so each
// traced run reports the same per-layer names.
var probeBenchmarks = []string{"gcc", "em3d", "apsi", "gsm encode", "mst"}

// probeReq is the request id of the probe's spans.
const probeReq = -1

// newMachineReps is how many machines the probe builds per benchmark.
const newMachineReps = 20

// probe times each layer from outside, around calls into its public
// functions, and returns the per-layer metrics. Every call runs inside a
// span of tr, so the span file covers every layer.
func probe(p params, tr *tracer, chk *checks) ([]value, error) {
	vals, results := probeSimulator(p, tr, chk)
	rs, err := probeRecstore(p, tr, chk)
	if err != nil {
		return nil, err
	}
	vals = append(vals, rs...)
	rc, err := probeResultcache(p, tr, chk, results)
	if err != nil {
		return nil, err
	}
	vals = append(vals, rc...)
	sw, err := probeSweep(p, tr, chk)
	if err != nil {
		return nil, err
	}
	vals = append(vals, sw...)
	// galsd installs its cache behind the sweep layer while it runs, so the
	// service session comes after the sweep probe.
	sv, err := probeService(p, tr, chk)
	if err != nil {
		return nil, err
	}
	return append(vals, sv...), nil
}

// probeSimulator times trace generation, recording and replay, the
// functional caches, the branch predictor, full machine runs, machine
// construction and the stage-parallel speedup over the probe benchmarks,
// and reports the simulated design's counts from the full runs.
func probeSimulator(p params, tr *tracer, chk *checks) ([]value, []*core.Result) {
	n := p.probeInsts
	cfg := phaseConfig(subSeed(p.seed, saltProbe, 0))
	syncCfgs := sweep.QuickSyncSpace()
	var gen, record, replay, functional, predict, full, seq, par time.Duration
	var branches, insts int64
	var st core.Stats
	var newMachine []float64
	var vals []value
	var results []*core.Result
	specs := mustSpecs(probeBenchmarks)
	for i, spec := range specs {
		stream := make([]isa.Inst, n)
		gen += tr.timed("workload", "Trace.Next", func() {
			t := spec.NewTrace()
			for j := range stream {
				t.Next(&stream[j])
			}
		})
		record += tr.timed("workload", "Spec.Record", func() { spec.Record(p.sweepWindow) })
		rec := spec.Record(n)
		replay += tr.timed("workload", "Replay.Next", func() {
			r := rec.Replay()
			var in isa.Inst
			for j := int64(0); j < n; j++ {
				r.Next(&in)
			}
		})
		functional += tr.timed("cache", "AccessPos", func() { accessCaches(stream) })
		var b int64
		predict += tr.timed("bpred", "Predict+Update", func() { b = predictBranches(stream) })
		branches += b

		var res *core.Result
		d := tr.timed("core", "Machine.Run", func() { res = core.NewMachine(spec, cfg).Run(n) })
		full += d
		insts += res.Stats.Instructions
		addDesignCounts(&st, res.Stats)
		results = append(results, res)
		vals = append(vals, value{name: "core.run_ns_per_inst." + strings.ReplaceAll(spec.Name, " ", "-"),
			v: float64(d.Nanoseconds()) / float64(n), unit: "ns"})

		for k := 0; k < newMachineReps; k++ {
			c := syncCfgs[k*len(syncCfgs)/newMachineReps]
			c.Seed, c.PLLScale = cfg.Seed, cfg.PLLScale
			newMachine = append(newMachine, us(tr.timed("core", "NewMachineSource", func() { core.NewMachineSource(rec.Replay(), c) })))
		}

		// Sequential and degree-2 runs of identical inputs, alternating
		// which goes first; they must agree bit for bit.
		var rs, rp *core.Result
		runSeq := func() {
			seq += tr.timed("core", "RunParallel(1)", func() { rs = core.RunWorkloadParallel(spec, cfg, p.runInsts, 1) })
		}
		runPar := func() {
			par += tr.timed("core", "RunParallel(2)", func() { rp = core.RunWorkloadParallel(spec, cfg, p.runInsts, 2) })
		}
		if i%2 == 0 {
			runSeq()
			runPar()
		} else {
			runPar()
			runSeq()
		}
		var err error
		if !reflect.DeepEqual(rs, rp) {
			err = fmt.Errorf("probe: %s at degree 2 differs from degree 1", spec.Name)
		}
		chk.note(err)
	}
	per := func(d time.Duration, count int64) float64 { return float64(d.Nanoseconds()) / float64(count) }
	total := n * int64(len(specs))
	kinst := float64(insts) / 1e3
	return append([]value{
		{name: "workload.generate_ns_per_inst", v: per(gen, total), unit: "ns"},
		{name: "workload.replay_ns_per_inst", v: per(replay, total), unit: "ns"},
		{name: "workload.record_ms", v: ms(record) / float64(len(specs)), unit: "ms", note: fmt.Sprintf("Spec.Record(%d) per benchmark", p.sweepWindow)},
		{name: "cache.functional_ns_per_inst", v: per(functional, total), unit: "ns"},
		{name: "bpred.ns_per_branch", v: per(predict, branches), unit: "ns", note: fmt.Sprintf("%d branches", branches)},
		{name: "core.timing_ns_per_inst", v: per(full-gen-functional-predict, total), unit: "ns",
			note: "derived: full run minus generate, functional caches and branch predictor"},
		percentileValue("core.new_machine_us", newMachine, 0.5, "us"),
		{name: "core.parallel_speedup", v: seq.Seconds() / par.Seconds(), unit: "ratio",
			note: fmt.Sprintf("degree 1 %.1f ms vs degree 2 %.1f ms", ms(seq), ms(par))},
		{name: "cache.l1d_miss_per_kinst", v: float64(st.DCacheMiss) / kinst, unit: "1/kinst"},
		{name: "cache.l2_miss_per_kinst", v: float64(st.L2Miss) / kinst, unit: "1/kinst"},
		{name: "bpred.mispredict_per_kinst", v: float64(st.Mispredicts) / kinst, unit: "1/kinst"},
		{name: "control.reconfigs_per_minst", v: float64(st.Reconfigs) / (float64(insts) / 1e6), unit: "1/Minst"},
	}, vals...), results
}

func addDesignCounts(sum *core.Stats, s core.Stats) {
	sum.DCacheMiss += s.DCacheMiss
	sum.L2Miss += s.L2Miss
	sum.Mispredicts += s.Mispredicts
	sum.Reconfigs += s.Reconfigs
}

// accessCaches drives the adaptive machine's three accounting caches over
// the stream the way the stage-parallel functional stage does: MRU
// positions only, no timing.
func accessCaches(stream []isa.Inst) {
	icache := cache.New(cache.Geometry{Name: "L1I", Sets: 16 * 1024 / core.LineBytes, Ways: 4, LineBytes: core.LineBytes})
	dcache := cache.New(cache.Geometry{Name: "L1D", Sets: 32 * 1024 / core.LineBytes, Ways: 8, LineBytes: core.LineBytes})
	l2 := cache.New(cache.Geometry{Name: "L2", Sets: 256 * 1024 / core.L2LineBytes, Ways: 8, LineBytes: core.L2LineBytes})
	for i := range stream {
		in := &stream[i]
		icache.AccessPos(in.PC, false)
		if in.Class.IsMem() {
			write := in.Class == isa.Store
			if dcache.AccessPos(in.Addr, write) < 0 {
				l2.AccessPos(in.Addr, write)
			}
		}
	}
}

// predictBranches runs the base front end's predictor over the stream's
// conditional branches and returns how many there were.
func predictBranches(stream []isa.Inst) int64 {
	p := bpred.New(timing.ICache16K1W.Spec().BPred)
	var n int64
	for i := range stream {
		in := &stream[i]
		if in.Class != isa.Branch {
			continue
		}
		n++
		p.Predict(in.PC)
		p.Update(in.PC, in.Taken)
	}
	return n
}

// probeRecstore times a fresh store's first touch of each benchmark's slab
// (record and write), then a remap of the released slab, and checks that
// the mapped replay matches live generation.
func probeRecstore(p params, tr *tracer, chk *checks) ([]value, error) {
	tmp, err := p.tmpDir()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "recstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := recstore.Open(dir)
	if err != nil {
		return nil, err
	}
	n := p.probeInsts
	var record, mapping time.Duration
	specs := mustSpecs(probeBenchmarks)
	for _, spec := range specs {
		var rec *workload.Recording
		var rerr error
		record += tr.timed("recstore", "Store.Recording", func() { rec, rerr = st.Recording(spec, n) })
		if rerr != nil {
			return nil, fmt.Errorf("recording %s: %w", spec.Name, rerr)
		}
		st.Release(spec, n)
		mapping += tr.timed("recstore", "Store.Recording", func() { rec, rerr = st.Recording(spec, n) })
		if rerr != nil {
			return nil, fmt.Errorf("mapping %s: %w", spec.Name, rerr)
		}
		chk.note(sameStream(spec, rec, n))
		st.Release(spec, n)
	}
	return []value{
		{name: "recstore.record_ms", v: ms(record) / float64(len(specs)), unit: "ms", note: fmt.Sprintf("first touch of a %d-instruction slab", n)},
		{name: "recstore.map_us", v: us(mapping) / float64(len(specs)), unit: "us"},
		{name: "recstore.mapped", v: float64(st.Stats().Mapped), unit: "count"},
	}, nil
}

// sameStream checks a recording's replay against live generation.
func sameStream(spec workload.Spec, rec *workload.Recording, n int64) error {
	live, rp := spec.NewTrace(), rec.Replay()
	var a, b isa.Inst
	for i := int64(0); i < n; i++ {
		live.Next(&a)
		rp.Next(&b)
		if a != b {
			return fmt.Errorf("recstore: %s replay differs from live generation at instruction %d", spec.Name, i)
		}
	}
	return nil
}

// resultcacheEntries is how many run results the result-cache probe stores
// and loads.
const resultcacheEntries = 32

// probeResultcache stores run results in a fresh cache (each write is
// fsynced) and loads each back several times.
func probeResultcache(p params, tr *tracer, chk *checks, results []*core.Result) ([]value, error) {
	tmp, err := p.tmpDir()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "resultcache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.Open(dir)
	if err != nil {
		return nil, err
	}
	var stores, loads []float64
	keys := make([]string, resultcacheEntries)
	vals := make([]service.RunResult, resultcacheEntries)
	for i := range keys {
		r := results[i%len(results)]
		vals[i] = service.RunResult{Workload: r.Workload, Config: r.Config.Label(), TimeFS: int64(r.TimeFS),
			IPnsec: r.IPnsec(), Instructions: r.Stats.Instructions, Stats: r.Stats}
		keys[i] = resultcache.Key("run", struct{ Probe, Seed int64 }{int64(i), p.seed})
		stores = append(stores, ms(tr.timed("resultcache", "Cache.Store", func() { c.Store(keys[i], vals[i]) })))
	}
	for round := 0; round < 4; round++ {
		for i, k := range keys {
			var got service.RunResult
			var ok bool
			loads = append(loads, us(tr.timed("resultcache", "Cache.Load", func() { ok = c.Load(k, &got) })))
			var err error
			if !ok || !sameResponse(got, vals[i]) {
				err = errors.New("resultcache: a stored run result did not load back unchanged")
			}
			chk.note(err)
		}
	}
	return []value{
		percentileValue("resultcache.load_us_p50", loads, 0.5, "us"),
		percentileValue("resultcache.store_ms_p50", stores, 0.5, "ms"),
	}, nil
}

// probeSweep runs one MeasureSummary over a stride of the quick synchronous
// space on a fresh two-worker pool and reports its cells.
func probeSweep(p params, tr *tracer, chk *checks) ([]value, error) {
	sb, err := newSweepBench(p, p.probeSweepStride)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	start := time.Now()
	r := sb.op(&opCtx{req: probeReq, tr: tr})
	wall := time.Since(start)
	chk.note(r.err)
	var cells []float64
	var busy time.Duration
	for _, d := range r.runs {
		cells = append(cells, ms(d))
		busy += d
	}
	return []value{
		percentileValue("sweep.cell_ms_p50", cells, 0.50, "ms"),
		percentileValue("sweep.cell_ms_p95", cells, 0.95, "ms"),
		{name: "sweep.worker_busy_frac", v: busy.Seconds() / (wall.Seconds() * sweepWorkers), unit: "ratio"},
		{name: "sweep.steals", v: float64(sb.pool.Steals()), unit: "count"},
		{name: "sweep.stolen_cells", v: float64(sb.pool.StolenCells()), unit: "count"},
	}, nil
}

// probeService runs a short traced session of the service-mixed request mix
// on a fresh galsd and splits each request's time by its server-side spans.
func probeService(p params, tr *tracer, chk *checks) ([]value, error) {
	sv, err := newServiceBench(p)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	win := drive(sv, 0, p.probeRequests, tr, make([]int64, sv.clients()), chk)
	var lookup, queue, sim, persist, httpOver []float64
	for _, s := range win.samples {
		if s.trace == nil {
			continue
		}
		spans := map[string]float64{} // duration in microseconds by span name
		for _, sp := range s.trace.Spans {
			spans[sp.Name] += float64(sp.DurUS)
		}
		if s.class == "warm" {
			lookup = append(lookup, spans["cache-lookup"])
			httpOver = append(httpOver, us(s.lat)-float64(s.trace.DurUS))
			continue
		}
		queue = append(queue, (spans["cell"]-spans["record"]-spans["replay+measure"])/1e3)
		sim = append(sim, spans["replay+measure"]/1e3)
		persist = append(persist, spans["persist"]/1e3)
	}
	st := sv.svc.Stats()
	return []value{
		percentileValue("service.cache_lookup_us_p50", lookup, 0.5, "us"),
		percentileValue("service.queue_wait_ms_p50", queue, 0.5, "ms"),
		percentileValue("service.sim_ms_p50", sim, 0.5, "ms"),
		percentileValue("service.persist_ms_p50", persist, 0.5, "ms"),
		percentileValue("service.http_overhead_us_p50", httpOver, 0.5, "us"),
		{name: "service.dedups", v: float64(st.DedupHits), unit: "count"},
		{name: "service.simulations", v: float64(st.Simulations), unit: "count"},
		{name: "resultcache.hits", v: float64(st.Cache.Hits), unit: "count"},
		{name: "resultcache.misses", v: float64(st.Cache.Misses), unit: "count"},
	}, nil
}
