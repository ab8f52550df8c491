// Command galsload is a closed-loop load-smoke driver for galsd: a fixed
// number of workers issue a mixed stream of warm runs (a small set of
// repeating requests that dedup and hit the cache), cold runs (unique
// seeds that always simulate) and quick design-space sweeps, then the
// driver reports exact client-side p50/p95/p99 latency and — the point of
// the exercise — scrapes GET /metrics and checks that the server's own
// histograms and counters tell the same story.
//
// Usage:
//
//	galsload -addr http://localhost:8347 -concurrency 8 -duration 10s
//	galsload -launch -galsd-bin ./bin/galsd     # spawn a throwaway server
//	galsload -requests 200 -assert              # CI smoke: fail on silence
//	galsload -launch -kill-after 5s             # crash/restart resume drill
//
// With -kill-after, galsload runs a restart drill instead of the load mix:
// it drives a full suite on a -launch'ed galsd, SIGKILLs the server
// mid-flight (after at least one progress checkpoint has been written),
// relaunches it over the same cache directory, re-issues the suite and
// reports resume efficiency — how many of the suite's simulation cells the
// checkpoint resume skipped versus recomputed.
//
// With -assert, the exit status is non-zero unless the scrape shows
// non-zero request-latency series, cache hits and completed cells —
// the "is observability actually wired" smoke test behind `make obs`.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gals/client"
	"gals/internal/metrics"
)

// warmSet is the repeating request mix: small windows (smoke, not
// benchmark), distinct benchmarks and modes so the server exercises
// record, replay, sync and adaptive paths.
var warmSet = []client.RunRequest{
	{Bench: "adpcm encode", Mode: "phase"},
	{Bench: "adpcm decode", Mode: "program"},
	{Bench: "epic encode", Mode: "sync"},
	{Bench: "jpeg compress", Mode: "phase"},
}

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8347", "galsd base URL")
		token       = flag.String("token", os.Getenv("GALSD_TOKEN"), "bearer token (default $GALSD_TOKEN)")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive load (ignored when -requests > 0)")
		requests    = flag.Int("requests", 0, "total request budget (0 = drive for -duration)")
		coldFrac    = flag.Float64("cold-frac", 0.25, "fraction of runs issued with a unique seed (always simulate)")
		sweepFrac   = flag.Float64("sweep-frac", 0.05, "fraction of requests that are quick phase-space sweeps")
		telFrac     = flag.Float64("telemetry-frac", 0, "fraction of runs issued with \"telemetry\":true, each followed by a GET /v1/telemetry/<digest> fetch of the artifact")
		window      = flag.Int64("window", 20_000, "instruction window per run")
		seed        = flag.Int64("seed", 1, "base seed for the request mix")
		launch      = flag.Bool("launch", false, "spawn a throwaway galsd (-galsd-bin) on a random port with a temp cache")
		galsdBin    = flag.String("galsd-bin", "galsd", "galsd binary for -launch")
		assert      = flag.Bool("assert", false, "exit non-zero unless the /metrics scrape shows non-zero latency, cache-hit and completed-cell series")
		killAfter   = flag.Duration("kill-after", 0, "restart drill: SIGKILL the -launch'ed galsd this long into a suite, relaunch it on the same cache and report resume efficiency (0 disables)")
		latency     = flag.Bool("latency", false, "single-run latency drill: p50/p95/p99 of cold and warm /v1/run on a launched galsd (needs -launch; -requests sets samples per cell)")
		warmP95     = flag.Duration("assert-warm-p95", 0, "with -latency -assert: fail when the warm p95 exceeds this bound (0 = no bound)")
	)
	flag.Parse()

	if *concurrency < 1 || *coldFrac < 0 || *coldFrac > 1 || *sweepFrac < 0 || *sweepFrac > 1 || *telFrac < 0 || *telFrac > 1 || *killAfter < 0 {
		fmt.Fprintln(os.Stderr, "galsload: bad flags: need -concurrency >= 1, fractions in [0,1] and -kill-after >= 0")
		os.Exit(2)
	}
	if *latency {
		if !*launch {
			fmt.Fprintln(os.Stderr, "galsload: -latency needs -launch (the drill must own a quiet server)")
			os.Exit(2)
		}
		if !latencyDrill(os.Stdout, *galsdBin, *token, *window, *seed, *requests, *assert, *warmP95) {
			os.Exit(1)
		}
		return
	}
	if *killAfter > 0 {
		if !*launch {
			fmt.Fprintln(os.Stderr, "galsload: -kill-after needs -launch (the drill must own the server process to kill it)")
			os.Exit(2)
		}
		if !killDrill(os.Stdout, *galsdBin, *token, *killAfter, *window, *seed, *assert) {
			os.Exit(1)
		}
		return
	}

	base := *addr
	if *launch {
		dir, err := os.MkdirTemp("", "galsload-cache-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "galsload:", err)
			os.Exit(1)
		}
		var stop func()
		base, stop, err = launchServer(*galsdBin, dir)
		if err != nil {
			os.RemoveAll(dir)
			fmt.Fprintln(os.Stderr, "galsload:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		defer stop()
	}

	cl := client.New(client.Options{BaseURL: base, Token: *token})
	if err := waitHealthy(cl, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		os.Exit(1)
	}

	lat := drive(cl, driveConfig{
		concurrency: *concurrency, duration: *duration, requests: *requests,
		coldFrac: *coldFrac, sweepFrac: *sweepFrac, telFrac: *telFrac,
		window: *window, seed: *seed,
	})

	ok := report(os.Stdout, cl, base, lat, *assert)
	if !ok {
		os.Exit(1)
	}
}

type driveConfig struct {
	concurrency int
	duration    time.Duration
	requests    int
	coldFrac    float64
	sweepFrac   float64
	telFrac     float64
	window      int64
	seed        int64
}

type latencies struct {
	mu    sync.Mutex
	runs  []time.Duration // client-side latency of successful requests
	fails int

	// Telemetry exercise: runs issued with "telemetry":true, artifacts
	// fetched back by digest, and fetches that failed (or came back with
	// no digest at all).
	telRuns, telFetched, telFails int
}

func (l *latencies) add(d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.fails++
		return
	}
	l.runs = append(l.runs, d)
}

// drive runs the closed loop: each worker issues its next request as soon
// as the previous one completes, so offered load adapts to server capacity
// instead of queueing unboundedly.
func drive(cl *client.Client, cfg driveConfig) *latencies {
	lat := &latencies{}
	var issued atomic.Int64
	var coldSeq atomic.Int64
	budget := int64(cfg.requests)
	deadline := time.Now().Add(cfg.duration)

	// splitmix-style per-request mixing keeps the mix deterministic for a
	// given -seed without sharing one locked RNG across workers.
	frac := func(n int64) float64 {
		z := uint64(n)*0x9e3779b97f4a7c15 + uint64(cfg.seed)
		z ^= z >> 33
		z *= 0xff51afd7ed558ccd
		z ^= z >> 33
		return float64(z%1_000_000) / 1_000_000
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := issued.Add(1)
				if budget > 0 && n > budget {
					return
				}
				if budget <= 0 && time.Now().After(deadline) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				start := time.Now()
				var err error
				switch r := frac(n); {
				case r < cfg.sweepFrac:
					_, err = cl.Sweep(ctx, client.SweepRequest{
						Space: "phase", Bench: "adpcm encode",
						Window: cfg.window, Seed: cfg.seed,
					})
				case r < cfg.sweepFrac+cfg.coldFrac:
					req := warmSet[int(n)%len(warmSet)]
					req.Window = cfg.window
					// Unique seed: this exact request has never been
					// simulated, so it must miss the cache and compute.
					req.Seed = cfg.seed + 1_000_000 + coldSeq.Add(1)
					// A second, independent draw (offset stream) decides
					// whether this run also asks for the telemetry artifact.
					req.Telemetry = frac(n+7_777_777) < cfg.telFrac
					var res client.RunResult
					res, err = cl.Run(ctx, req)
					if err == nil && req.Telemetry {
						lat.fetchTelemetry(ctx, cl, res)
					}
				default:
					req := warmSet[int(n)%len(warmSet)]
					req.Window = cfg.window
					req.Seed = cfg.seed
					req.Telemetry = frac(n+7_777_777) < cfg.telFrac
					var res client.RunResult
					res, err = cl.Run(ctx, req)
					if err == nil && req.Telemetry {
						lat.fetchTelemetry(ctx, cl, res)
					}
				}
				lat.add(time.Since(start), err)
				cancel()
			}
		}()
	}
	wg.Wait()
	return lat
}

// fetchTelemetry rounds out one telemetry-enabled run: pull the artifact
// the digest names back through GET /v1/telemetry/<digest> and fold the
// outcome into the counters.
func (l *latencies) fetchTelemetry(ctx context.Context, cl *client.Client, res client.RunResult) {
	l.mu.Lock()
	l.telRuns++
	l.mu.Unlock()
	ok := false
	if res.Telemetry != "" {
		// A valid artifact can be empty (sync/program runs have no
		// controller boundaries); the round-trip check is the version.
		if tel, err := cl.Telemetry(ctx, res.Telemetry); err == nil && tel.Version > 0 {
			ok = true
		}
	}
	l.mu.Lock()
	if ok {
		l.telFetched++
	} else {
		l.telFails++
	}
	l.mu.Unlock()
}

// pctile returns the exact q-quantile (nearest-rank) of sorted samples.
func pctile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// report prints the client-side and server-side views and, with assert,
// returns false when the scrape shows a dead observability surface.
func report(w io.Writer, cl *client.Client, base string, lat *latencies, assert bool) bool {
	sort.Slice(lat.runs, func(i, j int) bool { return lat.runs[i] < lat.runs[j] })
	fmt.Fprintf(w, "galsload: %d ok, %d failed\n", len(lat.runs), lat.fails)
	fmt.Fprintf(w, "client-side latency: p50 %v  p95 %v  p99 %v\n",
		pctile(lat.runs, 0.50).Round(time.Microsecond),
		pctile(lat.runs, 0.95).Round(time.Microsecond),
		pctile(lat.runs, 0.99).Round(time.Microsecond))
	cs := cl.Stats()
	fmt.Fprintf(w, "client counters: calls %d attempts %d retries %d 429s %d 503s %d 504s %d transport %d breaker-opens %d\n",
		cs.Calls, cs.Attempts, cs.Retries, cs.RateLimited, cs.Unavailable, cs.Timeouts, cs.TransportErrors, cs.BreakerOpens)

	scrape, err := scrapeMetrics(base)
	if err != nil {
		fmt.Fprintf(w, "metrics scrape FAILED: %v\n", err)
		return !assert
	}
	runBuckets := scrape.Buckets("gals_http_request_seconds", metrics.Label{Key: "endpoint", Value: "/v1/run"})
	fmt.Fprintf(w, "server-side /v1/run latency: p50 %s  p95 %s  p99 %s (upper bucket bounds)\n",
		fmtSecs(metrics.Quantile(0.50, runBuckets)),
		fmtSecs(metrics.Quantile(0.95, runBuckets)),
		fmtSecs(metrics.Quantile(0.99, runBuckets)))
	hits, _ := scrape.Value("gals_cache_hits_total")
	misses, _ := scrape.Value("gals_cache_misses_total")
	completed, _ := scrape.Value("gals_pool_cells_completed_total")
	queued, _ := scrape.Value("gals_pool_queue_depth")
	simRuns, _ := scrape.Value("gals_sim_runs_total")
	fmt.Fprintf(w, "server counters: cache hits %.0f misses %.0f, cells completed %.0f (queue %.0f), sim runs %.0f\n",
		hits, misses, completed, queued, simRuns)
	if lat.telRuns > 0 {
		telRuns, _ := scrape.Value("gals_telemetry_runs_total")
		telBytes, _ := scrape.Value("gals_telemetry_bytes_total")
		fmt.Fprintf(w, "telemetry: %d runs requested it, %d artifacts fetched, %d failed; server serialized %.0f artifacts (%.0f bytes)\n",
			lat.telRuns, lat.telFetched, lat.telFails, telRuns, telBytes)
	}

	if !assert {
		return true
	}
	var dead []string
	var reqCount float64
	for _, b := range runBuckets {
		reqCount = b.CumulativeCount
	}
	if reqCount <= 0 {
		dead = append(dead, "gals_http_request_seconds{endpoint=\"/v1/run\"} has no observations")
	}
	if hits <= 0 {
		dead = append(dead, "gals_cache_hits_total is zero (warm traffic should hit)")
	}
	if completed <= 0 {
		dead = append(dead, "gals_pool_cells_completed_total is zero")
	}
	if len(lat.runs) == 0 {
		dead = append(dead, "no request succeeded")
	}
	if lat.telRuns > 0 && lat.telFetched == 0 {
		dead = append(dead, "telemetry was requested but no artifact round-tripped")
	}
	for _, d := range dead {
		fmt.Fprintf(w, "ASSERT FAILED: %s\n", d)
	}
	if len(dead) == 0 {
		fmt.Fprintln(w, "asserts passed: latency, cache-hit and cell series are live")
	}
	return len(dead) == 0
}

func fmtSecs(s float64) string {
	if s != s { // NaN: no observations
		return "n/a"
	}
	return fmt.Sprintf("<=%v", time.Duration(s*float64(time.Second)).Round(time.Microsecond))
}

// scrapeMetrics fetches and parses the Prometheus exposition.
func scrapeMetrics(base string) (*metrics.Scrape, error) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.Parse(resp.Body)
}

func waitHealthy(cl *client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := cl.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v: %w", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// launchServer spawns a throwaway galsd on a kernel-chosen port over the
// given cache directory and parses the announced address from its startup
// line. The returned stop SIGKILLs the server and reaps it; the cache
// directory is the caller's to remove — or to relaunch over, which is how
// the restart drill proves a killed server's checkpoints resume.
func launchServer(bin, dir string, extra ...string) (base string, stop func(), err error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-cache", dir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	stop = func() {
		cmd.Process.Kill()
		cmd.Wait()
	}

	// The first stdout line announces the bound address:
	//   galsd: listening on 127.0.0.1:43210 (http, cache "...")
	sc := bufio.NewScanner(out)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "galsd: listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addrc:
		return "http://" + a, stop, nil
	case <-time.After(10 * time.Second):
		stop()
		return "", nil, fmt.Errorf("%s did not announce a listen address within 10s", bin)
	}
}

// killDrill is the -kill-after restart drill: launch galsd with a short
// checkpoint interval, drive a full suite, SIGKILL the server mid-flight
// once at least one progress checkpoint has been written, relaunch it over
// the SAME cache directory and re-issue the identical suite. The rerun's
// /v1/stats then show how much work the checkpoint resume saved.
func killDrill(w io.Writer, bin, token string, killAfter time.Duration, window, seed int64, assert bool) bool {
	dir, err := os.MkdirTemp("", "galsload-drill-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}
	defer os.RemoveAll(dir)

	// Checkpoint a few times before the kill lands, whatever -kill-after is.
	ckpt := killAfter / 3
	if ckpt < 200*time.Millisecond {
		ckpt = 200 * time.Millisecond
	}
	extra := []string{"-checkpoint-interval", ckpt.String()}

	base, stop, err := launchServer(bin, dir, extra...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}
	cl := client.New(client.Options{BaseURL: base, Token: token})
	if err := waitHealthy(cl, 10*time.Second); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}

	req := client.SuiteRequest{Window: window, Seed: seed}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		_, err := cl.Suite(ctx, req)
		done <- err
	}()

	// Wait out -kill-after, then hold the trigger until the first
	// checkpoint write is visible in /v1/stats — killing before any
	// checkpoint landed would only demonstrate a cold rerun.
	finished := false
	select {
	case <-done:
		finished = true
	case <-time.After(killAfter):
	}
	for deadline := time.Now().Add(30 * time.Second); !finished && time.Now().Before(deadline); {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := cl.ServerStats(ctx)
		cancel()
		if err == nil && st.CheckpointsWritten >= 1 {
			break
		}
		select {
		case <-done:
			finished = true
		case <-time.After(150 * time.Millisecond):
		}
	}
	if finished {
		stop()
		fmt.Fprintf(w, "galsload: suite finished in %v, before -kill-after %v left anything to resume (raise -window or lower -kill-after)\n",
			time.Since(start).Round(time.Millisecond), killAfter)
		return !assert
	}
	killedAfter := time.Since(start)
	stop() // SIGKILL: no drain, no flush — only the periodic checkpoints survive
	fmt.Fprintf(w, "galsload: SIGKILLed galsd %v into the suite (checkpoint interval %v)\n",
		killedAfter.Round(time.Millisecond), ckpt)

	base, stop, err = launchServer(bin, dir, extra...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload: relaunch:", err)
		return false
	}
	defer stop()
	cl = client.New(client.Options{BaseURL: base, Token: token})
	if err := waitHealthy(cl, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}

	restart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	_, err = cl.Suite(ctx, req)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload: rerun suite:", err)
		return false
	}
	rerun := time.Since(restart)

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	st, err := cl.ServerStats(sctx)
	scancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload: stats:", err)
		return false
	}

	// The relaunched process's counters start at zero, so Completed is
	// exactly the rerun's computed cells and ResumedCells the skipped ones.
	total := st.ResumedCells + st.Completed
	eff := 0.0
	if total > 0 {
		eff = 100 * float64(st.ResumedCells) / float64(total)
	}
	fmt.Fprintf(w, "restart drill: first leg killed at %v, rerun completed in %v\n",
		killedAfter.Round(time.Millisecond), rerun.Round(time.Millisecond))
	fmt.Fprintf(w, "resume: %d checkpoints restored, %d cells skipped, %d cells computed after restart — %.1f%% resume efficiency\n",
		st.CheckpointsResumed, st.ResumedCells, st.Completed, eff)

	if !assert {
		return true
	}
	var dead []string
	if st.CheckpointsResumed < 1 {
		dead = append(dead, "no checkpoint was resumed after the restart")
	}
	if st.ResumedCells <= 0 {
		dead = append(dead, "the resume skipped zero completed cells")
	}
	for _, d := range dead {
		fmt.Fprintf(w, "ASSERT FAILED: %s\n", d)
	}
	if len(dead) == 0 {
		fmt.Fprintln(w, "asserts passed: the restarted server resumed the suite from checkpoint")
	}
	return len(dead) == 0
}

// latencyCell is one temperature cell of the latency drill: sorted
// client-side samples.
type latencyCell []time.Duration

func (c latencyCell) String() string {
	return fmt.Sprintf("p50 %-10v p95 %-10v p99 %v",
		pctile(c, 0.50).Round(time.Microsecond),
		pctile(c, 0.95).Round(time.Microsecond),
		pctile(c, 0.99).Round(time.Microsecond))
}

// latencyDrill is the -latency mode: launch galsd over a private cache and
// measure single-run /v1/run latency in two cells: cold (unique seed,
// always simulates) and warm (repeated request, cache hit). The drill
// issues one request at a time. With assert, it fails when either cell is
// empty, or when a -assert-warm-p95 bound is given and the warm p95
// exceeds it.
func latencyDrill(w io.Writer, bin, token string, window, seed int64, runs int, assert bool, warmP95Bound time.Duration) bool {
	if runs <= 0 {
		runs = 30
	}
	dir, err := os.MkdirTemp("", "galsload-latency-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}
	defer os.RemoveAll(dir)
	base, stop, err := launchServer(bin, dir, "-workers", "4")
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}
	defer stop()
	cl := client.New(client.Options{BaseURL: base, Token: token})
	if err := waitHealthy(cl, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "galsload:", err)
		return false
	}

	issue := func(req client.RunRequest) (time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		start := time.Now()
		_, err := cl.Run(ctx, req)
		return time.Since(start), err
	}
	// Cold: every request carries a never-seen seed, so each one
	// simulates. The first request also pays trace recording; it is
	// issued unmeasured so the cell measures simulation latency.
	if _, err := issue(client.RunRequest{Bench: "gcc", Window: window, Seed: seed + 999_999}); err != nil {
		fmt.Fprintln(os.Stderr, "galsload: prime:", err)
	}
	var cold, warm latencyCell
	for i := 0; i < runs; i++ {
		d, err := issue(client.RunRequest{Bench: "gcc", Window: window, Seed: seed + 1_000_000 + int64(i)})
		if err == nil {
			cold = append(cold, d)
		}
	}
	// Warm: one fixed request; the first issue fills the cache, the
	// measured ones hit it.
	warmReq := client.RunRequest{Bench: "gcc", Window: window, Seed: seed}
	if _, err := issue(warmReq); err != nil {
		fmt.Fprintln(os.Stderr, "galsload: warm prime:", err)
	}
	for i := 0; i < runs; i++ {
		d, err := issue(warmReq)
		if err == nil {
			warm = append(warm, d)
		}
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })

	fmt.Fprintf(w, "single-run latency (bench gcc, window %d, %d samples per cell):\n", window, runs)
	fmt.Fprintf(w, "  cold: %s\n", cold)
	fmt.Fprintf(w, "  warm: %s\n", warm)

	if !assert {
		return true
	}
	var dead []string
	if len(cold) == 0 {
		dead = append(dead, "no cold request succeeded")
	}
	if len(warm) == 0 {
		dead = append(dead, "no warm request succeeded")
	}
	if p := pctile(warm, 0.95); warmP95Bound > 0 && p > warmP95Bound {
		dead = append(dead, fmt.Sprintf("warm p95 %v exceeds bound %v", p, warmP95Bound))
	}
	for _, d := range dead {
		fmt.Fprintf(w, "ASSERT FAILED: %s\n", d)
	}
	if len(dead) == 0 {
		fmt.Fprintln(w, "asserts passed: both latency cells live")
	}
	return len(dead) == 0
}
