package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"gals/internal/core"
	"gals/internal/metrics"
	"gals/internal/timing"
)

// params are one run's settings: the seed, window and mode from the command
// line, and the workload sizes, which only tests change.
type params struct {
	seed    int64
	window  time.Duration // measured window
	warmup  time.Duration // uncounted closed loop before the window
	traced  bool
	workdir string // temporary caches live under <workdir>/tmp
	sizes
}

// sizes are the workloads' instruction windows and set sizes.
type sizes struct {
	runInsts         int64 // instructions per run-phase-seq run
	sweepWindow      int64 // instructions per sweep cell
	sweepStride      int   // the sweep runs every sweepStride-th QuickSyncSpace config
	serviceWindow    int64 // instructions per service request
	probeInsts       int64 // instructions per benchmark in the layer probe
	probeSweepStride int   // config stride of the probe's sweep
	probeRequests    int   // requests per client in the probe's service session
}

var fullSizes = sizes{
	runInsts:         250_000,
	sweepWindow:      20_000,
	sweepStride:      4,
	serviceWindow:    100_000,
	probeInsts:       100_000,
	probeSweepStride: 4,
	probeRequests:    48,
}

func newParams(seed int64, window time.Duration, workdir string, sz sizes) params {
	// Warm-up is 3 s at windows of 20 s and more, and shrinks with shorter ones.
	warm := min(3*time.Second, window*15/100)
	return params{seed: seed, window: window, warmup: warm, workdir: workdir, sizes: sz}
}

// tmpDir returns (creating it) the directory temporary caches go in.
func (p params) tmpDir() (string, error) {
	d := filepath.Join(p.workdir, "tmp")
	return d, os.MkdirAll(d, 0o755)
}

// bench is one workload's set-up state, driven by a closed loop: each
// client starts its next operation when the previous one returns.
type bench interface {
	// clients is the number of concurrent callers.
	clients() int
	// op performs one caller operation.
	op(o *opCtx) opResult
	// verify runs the correctness checks that follow the window.
	verify(chk *checks)
	// digest hashes the simulated outputs of the workload's fixed inputs;
	// the same seed gives the same digest.
	digest() string
	close()
}

// opCtx identifies one operation. tr is nil when the operation is not
// traced.
type opCtx struct {
	client int
	seq    int64 // the client's operation number, counted across warm-up and window
	req    int64 // request id shared by the operation's spans
	tr     *tracer
}

// opResult is what one operation did.
type opResult struct {
	class string          // operation kind, for per-kind latencies and the tracing overhead
	cells int64           // simulations completed
	insts int64           // instructions they committed
	isRun bool            // the operation is itself one simulation: its latency is a run sample
	runs  []time.Duration // latencies of the simulations inside the operation
	trace *metrics.TraceDump
	err   error // a failure or a correctness mismatch
}

type sample struct {
	opResult
	lat time.Duration
}

// checks counts correctness checks and failures. Safe for concurrent use.
type checks struct {
	mu                sync.Mutex
	attempted, failed int64
	errs              []string
}

// note counts one check, failed when err is non-nil.
func (c *checks) note(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// window is the samples of one stretch of closed-loop operations.
type window struct {
	samples []sample
	elapsed time.Duration // from the first start to the last completion
}

// drive runs every client's closed loop until d has passed (d == 0: no
// limit) or each client has done maxOps operations (0: no limit), then
// waits for the operations in flight. seqs holds each client's next
// operation number.
func drive(b bench, d time.Duration, maxOps int, tr *tracer, seqs []int64, chk *checks) window {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, b.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; (d == 0 || time.Now().Before(deadline)) && (maxOps == 0 || n < maxOps); n++ {
				o := &opCtx{client: c, seq: seqs[c], req: int64(c)<<32 | seqs[c], tr: tr}
				seqs[c]++
				t0 := time.Now()
				r := b.op(o)
				per[c] = append(per[c], sample{r, time.Since(t0)})
				chk.note(r.err)
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// Set-up is repeated until it has run minSetupReps times and for
// minSetupTime, or maxSetupReps times, in batches of at least setupBatch with
// a single-goroutine reference pass before the first batch and after each.
// Each repetition's time is divided by the mean slowdown of the two passes
// around its batch, and setup_s is the median.
const (
	minSetupReps = 5
	minSetupTime = 2 * time.Second
	maxSetupReps = 1000
	setupBatch   = 100 * time.Millisecond
)

// measureSetup builds the workload's state repeatedly, closing all but the
// last, and returns it with the median set-up time at the baseline host's
// speed and the repetitions.
func measureSetup(def workloadDef, p params, ref *refKernel) (bench, float64, int, error) {
	var times []float64
	var b bench
	start := time.Now()
	prev := ref.slowdown(1)
	for len(times) < minSetupReps || (time.Since(start) < minSetupTime && len(times) < maxSetupReps) {
		var batch []float64
		for t0 := time.Now(); len(batch) == 0 || (time.Since(t0) < setupBatch && len(times)+len(batch) < maxSetupReps); {
			if b != nil {
				b.close()
			}
			t := time.Now()
			nb, err := def.setup(p)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s set-up: %w", def.name, err)
			}
			batch = append(batch, time.Since(t).Seconds())
			b = nb
		}
		next := ref.slowdown(1)
		for _, t := range batch {
			times = append(times, t/((prev+next)/2))
		}
		prev = next
	}
	return b, median(times), len(times), nil
}

// segmentLen is the length of one stretch of the measured window: long
// against a reference slot (about 30 ms at the baseline host's speed),
// short against the host's drift.
const segmentLen = time.Second

// segment is one stretch of the measured window and the host's slowdown
// over it: the mean of the reference slots on either side.
type segment struct {
	window
	slowdown float64
}

// measureWindow runs the untraced window as segments of closed-loop
// operations, with a reference slot on threads goroutines before the first
// and after each. The window's length includes the slots.
func measureWindow(b bench, p params, ref *refKernel, threads int, seqs []int64, chk *checks) []segment {
	seg := min(segmentLen, p.window/4)
	start := time.Now()
	prev := ref.slowdown(threads)
	var segs []segment
	for len(segs) == 0 || time.Since(start) < p.window {
		w := drive(b, seg, 0, nil, seqs, chk)
		next := ref.slowdown(threads)
		segs = append(segs, segment{w, (prev + next) / 2})
		prev = next
	}
	return segs
}

// value is one reported number.
type value struct {
	name string
	v    float64
	unit string
	note string // sample count or derivation, printed beside the value
}

// report is one run's outcome. Metrics holds the catalog metrics of the run
// (end-to-end untraced, per-layer traced), Extra the informational values
// that have no bound.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	SimDigest string             `json:"sim_digest"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"`

	values, extras []value // print order
	errs           []string
	spans          *spanFile // traced runs only
	spansPath      string    // where the spans were written
}

// run executes one workload: repeated set-up, warm-up, the measured window
// (untraced) or the traced window plus the layer probe, then the
// correctness checks.
func run(def workloadDef, p params) (*report, error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	b, setupS, reps, err := measureSetup(def, p, ref)
	if err != nil {
		return nil, err
	}
	defer b.close()
	chk := &checks{}
	seqs := make([]int64, b.clients())
	drive(b, p.warmup, 0, nil, seqs, chk)

	rep := &report{Workload: def.name, Seed: p.seed, Trace: p.traced, Seconds: p.window.Seconds()}
	want := endToEnd
	if p.traced {
		want = perLayer
		wtr, ptr := newTracer(), newTracer()
		rep.values = tracedWindow(b, p, wtr, seqs, chk)
		probed, err := probe(p, ptr, chk)
		if err != nil {
			return nil, err
		}
		rep.values = append(rep.values, probed...)
		rep.spans = &spanFile{Workload: def.name, Seed: p.seed, Window: newSpanSet(wtr), Probe: newSpanSet(ptr)}
	} else {
		mem := startMemSampler()
		segs := measureWindow(b, p, ref, def.threads, seqs, chk)
		rep.values, rep.extras = endToEndValues(segs, setupS, reps, mem.finish())
	}
	b.verify(chk)
	rep.SimDigest = b.digest()

	rep.Metrics = map[string]float64{}
	for _, v := range rep.values {
		rep.Metrics[v.name] = v.v
	}
	for _, m := range want {
		if v, ok := rep.Metrics[m.Name]; !ok || math.IsNaN(v) {
			chk.note(fmt.Errorf("metric %s has no samples", m.Name))
		}
	}
	if len(rep.extras) > 0 {
		rep.Extra = map[string]float64{}
		for _, v := range rep.extras {
			rep.Extra[v.name] = v.v
		}
	}
	rep.Attempted, rep.Failed, rep.errs = chk.attempted, chk.failed, chk.errs
	rep.Correct = chk.failed == 0
	return rep, nil
}

// endToEndValues computes the end-to-end metrics of an untraced window from
// its segments, set-up times and memory samples. Host times and rates are
// at the baseline host's speed: each segment's times are divided by its
// slowdown and its rates multiplied, and the rates are the median over the
// segments. The extras are the unbounded values: the run latency's tail,
// per-kind latencies, the process's peak RSS, and the host's median
// slowdown with the unscaled throughput and run time.
func endToEndValues(segs []segment, setupS float64, setupReps int, memMB []float64) (vals, extras []value) {
	var cells, insts, reqs int64
	var secs float64
	var simRate, cellRate, reqRate, slowdowns, runs, rawRuns []float64
	byKind := map[string][]float64{}
	for _, sg := range segs {
		var c, n int64
		for _, s := range sg.samples {
			c += s.cells
			n += s.insts
			byKind[s.class] = append(byKind[s.class], ms(s.lat)/sg.slowdown)
			lats := s.runs
			if s.isRun {
				lats = []time.Duration{s.lat}
			}
			for _, d := range lats {
				runs = append(runs, ms(d)/sg.slowdown)
				rawRuns = append(rawRuns, ms(d))
			}
		}
		e := sg.elapsed.Seconds()
		simRate = append(simRate, float64(n)/e*sg.slowdown/1e6)
		cellRate = append(cellRate, float64(c)/e*sg.slowdown)
		reqRate = append(reqRate, float64(len(sg.samples))/e*sg.slowdown)
		slowdowns = append(slowdowns, sg.slowdown)
		cells, insts, reqs, secs = cells+c, insts+n, reqs+int64(len(sg.samples)), secs+e
	}
	perSeg := fmt.Sprintf("median of %d segments", len(segs))
	vals = []value{
		{name: "sim_minst_per_s", v: median(simRate), unit: "Minst/s", note: perSeg},
		{name: "cells_per_s", v: median(cellRate), unit: "1/s", note: fmt.Sprintf("%s; %d simulations in %.2f s", perSeg, cells, secs)},
		{name: "req_per_s", v: median(reqRate), unit: "1/s", note: fmt.Sprintf("%s; %d requests", perSeg, reqs)},
		percentileValue("run_ms_p50", runs, 0.50, "ms"),
		{name: "setup_s", v: setupS, unit: "s", note: fmt.Sprintf("median of %d set-ups", setupReps)},
		percentileValue("mem_mb_p50", memMB, 0.50, "MB"),
	}
	extras = supportedPercentiles("run", runs, 0.95, 0.99)
	var kinds []string
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		extras = append(extras, supportedPercentiles(strings.ReplaceAll(k, " ", "-"), byKind[k], 0.50, 0.95, 0.99)...)
	}
	// The peak moves with GC timing (47-73 MB between identical sweep runs
	// whose median footprint holds at 17 MB), so it is not bounded.
	return vals, append(extras,
		value{name: "peak_rss_mb", v: peakRSSMB(), unit: "MB", note: "getrusage max RSS of the whole process"},
		value{name: "host_slowdown", v: median(slowdowns), unit: "ratio", note: perSeg},
		value{name: "raw_sim_minst_per_s", v: float64(insts) / secs / 1e6, unit: "Minst/s", note: "not scaled"},
		percentileValue("raw_run_ms_p50", rawRuns, 0.50, "ms"),
	)
}

// supportedPercentiles reports <prefix>_ms_p<q> for each percentile of xs
// with at least minBeyond samples beyond it.
func supportedPercentiles(prefix string, xs []float64, qs ...float64) []value {
	var out []value
	for _, q := range qs {
		if _, beyond := percentile(xs, q); beyond >= minBeyond {
			out = append(out, percentileValue(fmt.Sprintf("%s_ms_p%d", prefix, int(q*100)), xs, q, "ms"))
		}
	}
	return out
}

// tracedWindow runs the traced window as alternating untraced and traced
// segments. The tracing overhead compares the traced segments' operations
// with the untraced ones; runtime costs come from the untraced segments
// only, so they exclude the tracing's own allocations.
func tracedWindow(b bench, p params, tr *tracer, seqs []int64, chk *checks) []value {
	var untraced, traced []sample
	var alloc uint64
	var gcCPU, allCPU float64
	seg := p.window / time.Duration(len(tracedSegments))
	for _, on := range tracedSegments {
		if on {
			traced = append(traced, drive(b, seg, 0, tr, seqs, chk).samples...)
			continue
		}
		before := readRuntime()
		win := drive(b, seg, 0, nil, seqs, chk)
		after := readRuntime()
		untraced = append(untraced, win.samples...)
		alloc += after.alloc - before.alloc
		gcCPU += after.gcCPU - before.gcCPU
		allCPU += after.allCPU - before.allCPU
	}
	return []value{
		{name: "trace.overhead_pct", v: tracingOverhead(untraced, traced), unit: "%",
			note: fmt.Sprintf("%d traced vs %d untraced operations", len(traced), len(untraced))},
		{name: "runtime.alloc_bytes_per_op", v: float64(alloc) / float64(len(untraced)), unit: "B"},
		{name: "runtime.gc_cpu_frac", v: gcCPU / allCPU, unit: "ratio"},
	}
}

// tracedSegments is the traced window's pattern of equal segments, traced
// (true) or not: ABBA twice, so that drift cancels and the host's slow
// stretches tend to fall on both sides.
var tracedSegments = []bool{false, true, true, false, false, true, true, false}

// tracingOverhead estimates the time tracing added, as a percentage of the
// untraced time of the same operations: per operation kind, the difference
// of median latencies, weighted by the kind's operation count.
func tracingOverhead(untraced, traced []sample) float64 {
	var lat [2]map[string][]float64
	for side, ss := range [2][]sample{untraced, traced} {
		lat[side] = map[string][]float64{}
		for _, s := range ss {
			lat[side][s.class] = append(lat[side][s.class], s.lat.Seconds())
		}
	}
	var extra, base float64
	for kind, u := range lat[0] {
		t := lat[1][kind]
		if len(t) == 0 {
			continue
		}
		n, mu := float64(len(u)+len(t)), median(u)
		extra += n * (median(t) - mu)
		base += n * mu
	}
	if base == 0 {
		return 0
	}
	return 100 * extra / base
}

type runtimeSnap struct {
	alloc         uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeSnap {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSnap{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// memSampleEvery is the memory sampler's period.
const memSampleEvery = 20 * time.Millisecond

// memSampler samples the Go runtime's footprint during a window: the
// memory it has mapped and not released to the OS, in MB.
type memSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			m.mb = append(m.mb, goMemMB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns its samples.
func (m *memSampler) finish() []float64 {
	close(m.stop)
	<-m.done
	return m.mb
}

func goMemMB() float64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set size (getrusage's max
// RSS, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// simOutput is the part of a simulation's result its digest covers.
type simOutput struct {
	TimeFS timing.FS
	Stats  core.Stats
}

// digestOf hashes the JSON encodings of simulation outputs, in order.
func digestOf[T any](outs []T) string {
	h := sha256.New()
	for _, o := range outs {
		blob, err := json.Marshal(o)
		if err != nil {
			panic(err) // simulation outputs are plain data
		}
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameOutput reports whether two simulation outputs are identical, through
// their JSON form so that a result decoded from galsd compares equal to one
// computed in-process.
func sameOutput(a, b simOutput) bool {
	return digestOf([]simOutput{a}) == digestOf([]simOutput{b})
}

// Salts of the seed families derived from --seed.
const (
	saltRun = iota + 1
	saltOrder
	saltSweep
	saltWarm
	saltCold
	saltClient
	saltProbe
	saltCheck
)

// subSeed derives seed number i of one input family from the run's seed
// with splitmix64, so each family varies with the seed independently of the
// others. The result is in [1, 2^31].
func subSeed(seed int64, salt uint64, i int) int64 {
	z := uint64(seed) ^ salt*0x9e3779b97f4a7c15 ^ uint64(i)*0xd1b54a32d192ed03
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}
