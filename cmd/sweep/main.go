// Command sweep performs the paper's design-space explorations
// (Section 4) and prints a draft of Figure 6:
//
//   - search the 1,024-point fully synchronous space for the best overall
//     machine,
//   - search the 256-point adaptive MCD space per application
//     (Program-Adaptive),
//   - run the Phase-Adaptive machine with its on-line controllers,
//
// then report per-application percent improvements over the best
// synchronous design and the suite means.
//
// By default the sweeps stream per-cell results into running accumulators
// (O(configs + benchmarks) memory); with -cache, each benchmark's trace is
// recorded once to an mmap-replayed slab under <cache>/recordings, so
// paper-scale windows (-window 1000000 and up) run in bounded heap.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gals"
	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

func main() {
	var (
		window   = flag.Int64("window", 30_000, "instruction window per run")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		pll      = flag.Float64("pllscale", 0.1, "PLL lock-time scale")
		quick    = flag.Bool("quick", false, "prune the synchronous space to direct-mapped I-caches (5x faster)")
		only     = flag.String("bench", "", "restrict to one benchmark (adaptive stages only)")
		cache    = flag.String("cache", "", "persistent cache directory: results + mmap-replayed recordings (repeated sweeps become incremental)")
		memstats = flag.Bool("memstats", false, "report peak heap and peak RSS after the sweep")
		policies = flag.String("policies", "", `adaptation-policy sweep: settings as "name[:k=v,k=v][@blobfile]" separated by ';' (e.g. "paper;frozen;interval:interval=7500;learned@weights.json"); runs an extra Phase-Adaptive policy stage`)
	)
	flag.Parse()

	if *window <= 0 {
		fmt.Fprintf(os.Stderr, "sweep: -window must be positive, got %d\n", *window)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if !(*pll >= 0) { // negated form rejects NaN too
		fmt.Fprintf(os.Stderr, "sweep: -pllscale must be >= 0, got %g\n", *pll)
		os.Exit(2)
	}
	settings, err := parsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	opts := sweep.Options{Window: *window, Workers: *workers, PLLScale: *pll}.WithDefaults()
	if *cache != "" {
		env, err := gals.OpenCache(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		opts.Env = env
	}

	stopSampler := (func())(nil)
	if *memstats {
		stopSampler = startHeapSampler()
	}

	*window = opts.Window
	// One shared recorded-trace pool: each benchmark's deterministic stream
	// is captured once (on disk when -cache is set, in memory otherwise)
	// and replayed by every configuration run of all three sweep stages.
	opts.Traces = opts.Env.Pool(opts.Window)
	specs := workload.Suite()
	if *only != "" {
		s, ok := workload.ByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "sweep: unknown benchmark %q\n", *only)
			os.Exit(1)
		}
		specs = []workload.Spec{s}
	}

	syncCfgs := sweep.SyncSpace()
	if *quick {
		syncCfgs = sweep.QuickSyncSpace()
	}

	// measure streams one design space into its summary.
	measure := func(cfgs []core.Config, o sweep.Options) *sweep.Summary {
		sum, err := sweep.MeasureSummary(specs, cfgs, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return sum
	}

	start := time.Now()
	fmt.Printf("sync sweep: %d configs x %d benchmarks, window %d\n", len(syncCfgs), len(specs), *window)

	syncSum := measure(syncCfgs, opts)
	if syncSum.Best < 0 {
		fmt.Fprintln(os.Stderr, "sweep: synchronous sweep produced no finite run times")
		os.Exit(1)
	}
	fmt.Printf("best overall synchronous: %s  (%.1fs)\n", syncCfgs[syncSum.Best].Label(), time.Since(start).Seconds())

	// Show the ranking of the synchronous space (geomean run time relative
	// to the best) for the most informative configurations: the sweep's
	// full Scores, sorted here.
	type ranked struct {
		cfg   int
		score float64
	}
	rank := make([]ranked, len(syncCfgs))
	for ci := range rank {
		rank[ci] = ranked{ci, syncSum.Scores[ci]}
		if syncSum.Invalid[ci] { // no valid measurement: disqualify
			rank[ci].score = math.Inf(1)
		}
	}
	sort.Slice(rank, func(i, j int) bool { return rank[i].score < rank[j].score })
	n := float64(len(specs))
	fmt.Println("top synchronous configurations (geomean vs best):")
	for i := 0; i < 10 && i < len(rank); i++ {
		rel := math.Exp((rank[i].score - rank[0].score) / n)
		fmt.Printf("  %2d. %-44s %+.2f%%\n", i+1, syncCfgs[rank[i].cfg].Label(), (rel-1)*100)
	}
	for i, r := range rank {
		c := syncCfgs[r.cfg]
		if timing.SyncICacheSpecAt(c.SyncICache).Name == "64k1W" && c.DCache == timing.DCache32K1W &&
			c.IntIQ == timing.IQ16 && c.FPIQ == timing.IQ16 {
			rel := math.Exp((r.score - rank[0].score) / n)
			fmt.Printf("  paper's best-sync config ranks #%d: %-30s %+.2f%%\n", i+1, c.Label(), (rel-1)*100)
		}
	}
	fmt.Println()

	adCfgs := sweep.AdaptiveSpace()
	fmt.Printf("adaptive sweep: %d configs x %d benchmarks\n", len(adCfgs), len(specs))
	adSum := measure(adCfgs, opts)

	phase, err := sweep.MeasurePhase(specs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	fmt.Printf("\n%-18s %11s %11s %8s %8s   %s\n", "benchmark", "t_sync(us)", "t_prog(us)", "prog%", "phase%", "best adaptive config")
	var sumProg, sumPhase float64
	for si, spec := range specs {
		ts := syncSum.BestTimes[si]
		tp := adSum.PerAppTimes[si]
		tph := phase[si].TimeFS
		ip := sweep.Improvement(ts, tp)
		iph := sweep.Improvement(ts, tph)
		sumProg += ip
		sumPhase += iph
		fmt.Printf("%-18s %11.2f %11.2f %+8.1f %+8.1f   %s\n",
			spec.Name, us(ts), us(tp), ip, iph, adCfgs[adSum.PerApp[si]].Label())
	}
	fmt.Printf("\nmean improvement: program-adaptive %+.1f%%  phase-adaptive %+.1f%%  (paper: +17.6%% / +20.4%%)\n",
		sumProg/n, sumPhase/n)

	// Optional adaptation-policy stage: the same benchmarks swept across
	// Phase-Adaptive machines that differ only in their control policy.
	if len(settings) > 0 {
		fmt.Printf("\npolicy sweep: %d policies x %d benchmarks\n", len(settings), len(specs))
		polCfgs := sweep.PhaseSpace(settings)
		// The summary's ranking guards disqualify a policy with a
		// non-positive run time instead of poisoning the geomean.
		polSum := measure(polCfgs, opts)
		fmt.Printf("%-40s %12s %10s\n", "policy", "geomean(us)", "vs first")
		for i, ps := range settings {
			label := ps.Name
			if ps.Params != "" {
				label += "{" + ps.Params + "}"
			}
			if polSum.Invalid[i] {
				fmt.Printf("%-40s %12s %10s\n", label, "-", "invalid")
				continue
			}
			geo := math.Exp(polSum.Scores[i] / n)
			if polSum.Invalid[0] {
				fmt.Printf("%-40s %12.2f %10s\n", label, geo/1e9, "n/a")
				continue
			}
			rel := math.Exp((polSum.Scores[i] - polSum.Scores[0]) / n)
			fmt.Printf("%-40s %12.2f %+9.2f%%\n", label, geo/1e9, (rel-1)*100)
		}
	}
	fmt.Printf("total sweep time %.1fs\n", time.Since(start).Seconds())

	if stopSampler != nil {
		stopSampler()
	}
}

// parsePolicies parses the -policies flag: settings separated by ';', each
// "name", "name:key=value,key=value" or either form followed by
// "@blobfile" (a weights-artifact file for blob-requiring policies),
// validated against the policy registry.
func parsePolicies(s string) ([]sweep.PolicySetting, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []sweep.PolicySetting
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var blobFile string
		if at := strings.LastIndex(part, "@"); at >= 0 {
			part, blobFile = part[:at], strings.TrimSpace(part[at+1:])
		}
		name, params, _ := strings.Cut(part, ":")
		ps := sweep.PolicySetting{Name: strings.TrimSpace(name), Params: strings.TrimSpace(params)}
		if blobFile != "" {
			blob, err := os.ReadFile(blobFile)
			if err != nil {
				return nil, err
			}
			ps.Blob = string(blob)
		}
		if err := control.ValidateSelection(ps.Name, ps.Params, ps.Blob); err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

func us(fs int64) float64 { return float64(fs) / 1e9 }

// startHeapSampler polls the Go heap every 50 ms and, on stop, reports the
// peak heap observed alongside the process's peak RSS (VmHWM, which also
// counts resident mmap'd recording pages — the gap between the two numbers
// is the file-backed memory the recording store moved out of the heap).
func startHeapSampler() (stop func()) {
	var peak atomic.Int64
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if h := int64(ms.HeapInuse); h > peak.Load() {
			peak.Store(h)
		}
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		fmt.Printf("peak heap in use: %.1f MB\n", float64(peak.Load())/(1<<20))
		if hwm, ok := vmHWM(); ok {
			fmt.Printf("peak RSS (incl. mmap'd recordings): %.1f MB\n", float64(hwm)/(1<<20))
		}
	}
}

// vmHWM reads the process's peak resident set size from /proc (Linux).
func vmHWM() (int64, bool) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		var kb int64
		if n, _ := fmt.Sscanf(line, "VmHWM: %d kB", &kb); n == 1 {
			return kb * 1024, true
		}
	}
	return 0, false
}
