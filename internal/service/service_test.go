package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gals/internal/resultcache"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRunRequestValidation(t *testing.T) {
	cases := []RunRequest{
		{},                              // missing bench
		{Bench: "no-such-benchmark"},    // unknown bench
		{Bench: "gcc", Mode: "quantum"}, // unknown mode
		{Bench: "gcc", Window: -5},      // negative window
		{Bench: "gcc", JitterFrac: 0.5}, // jitter out of range
		{Bench: "gcc", Mode: "sync", ICache: "nope"}, // unknown i-cache
		{Bench: "gcc", IntIQ: 17},                    // invalid queue size
	}
	for _, req := range cases {
		if _, err := req.normalize(); err == nil {
			t.Errorf("request %+v validated, want error", req)
		}
	}
	if n, err := (RunRequest{Bench: "gcc"}).normalize(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	} else if n.Mode != "phase" || n.Window != 100_000 || n.Seed != 42 || n.PLLScale != 0.1 {
		t.Errorf("defaults not resolved: %+v", n)
	}
}

func TestRunAndPersistentCacheAcrossServices(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Bench: "gcc", Mode: "phase", Window: 3_000}

	s1 := newTestService(t, Config{CacheDir: dir, Workers: 2})
	r1, err := s1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.TimeFS <= 0 || r1.Instructions != 3_000 {
		t.Fatalf("cold run wrong: %+v", r1)
	}
	if got := s1.Stats().Simulations; got != 1 {
		t.Fatalf("cold run executed %d simulations, want 1", got)
	}
	// Same request again within the same service: persistent hit, no sim.
	r1b, err := s1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r1b.Cached || s1.Stats().Simulations != 1 {
		t.Fatalf("warm same-service run re-simulated: %+v", r1b)
	}
	s1.Close()

	// A fresh service on the same directory models a second process.
	s2 := newTestService(t, Config{CacheDir: dir, Workers: 2})
	r2, err := s2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatalf("second process missed the persistent cache: %+v", r2)
	}
	if r2.TimeFS != r1.TimeFS || r2.Instructions != r1.Instructions {
		t.Fatalf("cached result differs: %+v vs %+v", r2, r1)
	}
	if got := s2.Stats().Simulations; got != 0 {
		t.Fatalf("second process ran %d simulations, want 0", got)
	}
	// Priority must not split the cache key.
	r3, err := s2.Run(context.Background(), RunRequest{Bench: "gcc", Mode: "phase", Window: 3_000, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached || s2.Stats().Simulations != 0 {
		t.Fatal("priority changed the cache key")
	}
}

func TestConcurrentIdenticalRunsDedupeToOneSimulation(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 4})
	req := RunRequest{Bench: "art", Mode: "phase", Window: 20_000}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]RunResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	st := s.Stats()
	if st.Simulations != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", callers, st.Simulations)
	}
	for i := 1; i < callers; i++ {
		if results[i].TimeFS != results[0].TimeFS {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	if st.DedupHits == 0 && st.Cache.Hits == 0 {
		t.Fatalf("no dedup or cache hit recorded: %+v", st)
	}
}

// TestSuiteSecondInvocationServedFromDisk: a second
// cmd/experiments-equivalent invocation (a fresh service, which opens the
// same cache directory anew) must be served entirely from the
// persistent cache — zero new pipeline computations, verified through the
// same counter the stats endpoint reports.
func TestSuiteSecondInvocationServedFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("suite pipeline in -short mode")
	}
	dir := t.TempDir()
	req := SuiteRequest{Window: 1_200}

	s1 := newTestService(t, Config{CacheDir: dir})
	before := s1.Stats().SuiteComputations
	sum1, err := s1.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	after := s1.Stats().SuiteComputations
	if after != before+1 {
		t.Fatalf("cold suite ran %d pipelines, want 1", after-before)
	}
	if len(sum1.Benchmarks) != 40 || sum1.BestSync == "" {
		t.Fatalf("suite summary malformed: %+v", sum1)
	}
	s1.Close()

	// "Second process": a new service on the same directory opens its own
	// cache, which the process-local memo keys apart from s1's.
	s2 := newTestService(t, Config{CacheDir: dir})
	sum2, err := s2.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().SuiteComputations; got != after {
		t.Fatalf("second invocation recomputed the pipeline (%d -> %d computations)", after, got)
	}
	if got := s2.Stats().Simulations; got != 0 {
		t.Fatalf("second invocation ran %d simulations, want 0", got)
	}
	if !reflect.DeepEqual(sum1, sum2) {
		t.Fatalf("persistent suite differs:\n%+v\nvs\n%+v", sum1, sum2)
	}
	// The figure6 experiment derives from the same restored memo entry.
	tbl, err := s2.Experiment(context.Background(), ExperimentRequest{ID: "figure6", SuiteRequest: req})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 40 {
		t.Fatalf("figure6 from restored memo has %d rows, want 40", len(tbl.Rows))
	}
	if got := s2.Stats().SuiteComputations; got != after {
		t.Fatal("figure6 after restore recomputed the pipeline")
	}
}

// TestSuiteRequestValidation: out-of-range suite parameters must come back
// as errors — before this check existed, a bad jitter reached clock.New on
// a worker goroutine and panicked the whole server.
func TestSuiteRequestValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for _, req := range []SuiteRequest{
		{JitterFrac: 0.5},
		{JitterFrac: -0.1},
		{Window: -100},
		{PLLScale: -1},
	} {
		if _, err := s.Suite(context.Background(), req); err == nil {
			t.Errorf("Suite(%+v) succeeded, want validation error", req)
		}
		if _, err := s.Experiment(context.Background(), ExperimentRequest{ID: "figure6", SuiteRequest: req}); err == nil {
			t.Errorf("Experiment(%+v) succeeded, want validation error", req)
		}
	}
}

// TestSharedPoolBoundsMixedLoad is the PR's scheduler acceptance check,
// meant to run under -race: concurrent sweeps, single runs and batches all
// share the service's one cell pool, so the number of simultaneously
// executing cells never exceeds the configured workers, nothing errors, and
// every response is consistent with its duplicates.
func TestSharedPoolBoundsMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-load sweep in -short mode")
	}
	const workers = 3
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: workers})

	// Sample the in-flight gauge while the load runs: the shared cell
	// pool is the only execution path, so it can never exceed workers.
	stop := make(chan struct{})
	var maxInFlight atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if n := s.pool.InFlight(); n > maxInFlight.Load() {
					maxInFlight.Store(n)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Two sweeps (one duplicated — must dedup), a stream of runs, a batch.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Sweep(context.Background(), SweepRequest{Space: "adaptive", Bench: "art", Window: 700})
			if err != nil {
				errc <- err
				return
			}
			if res.Configs != 256 || len(res.PerApp) != 1 {
				errc <- fmt.Errorf("sweep result malformed: %+v", res)
			}
		}()
	}
	runResults := make([]RunResult, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bench := []string{"gcc", "art", "gcc"}[i%3]
			r, err := s.Run(context.Background(), RunRequest{Bench: bench, Window: 2_000, Priority: i % 2 * 10})
			if err != nil {
				errc <- err
				return
			}
			runResults[i] = r
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		items := s.RunBatch(context.Background(), []RunRequest{
			{Bench: "em3d", Window: 1_500},
			{Bench: "em3d", Window: 1_500}, // same recording lane
			{Bench: "apsi", Window: 1_500},
			{Bench: "does-not-exist"},
		})
		for i, it := range items[:3] {
			if it.Result == nil {
				errc <- fmt.Errorf("batch item %d failed: %s", i, it.Error)
			}
		}
		if items[3].Error == "" {
			errc <- fmt.Errorf("invalid batch item succeeded")
		}
		if items[0].Result.TimeFS != items[1].Result.TimeFS {
			errc <- fmt.Errorf("same-lane batch items disagree")
		}
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got := maxInFlight.Load(); got > workers {
		t.Fatalf("observed %d cells in flight, pool is bounded at %d", got, workers)
	}
	// Identical runs must agree bit-for-bit regardless of scheduling.
	if runResults[0].TimeFS != runResults[2].TimeFS {
		t.Fatal("identical concurrent runs diverged")
	}
	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("work left behind: %+v", st)
	}
	if st.Recordings.Recorded == 0 {
		t.Fatalf("no recordings written by the mixed load: %+v", st.Recordings)
	}
}

// TestCachePruneEndpointAndCap: the admin endpoint prunes the persistent
// cache LRU-first, and a service configured with CacheMaxBytes prunes at
// startup.
func TestCachePruneEndpointAndCap(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{CacheDir: dir, Workers: 2})
	if _, err := s.Run(context.Background(), RunRequest{Bench: "gcc", Window: 2_000}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/cache/prune", "application/json", strings.NewReader(`{"max_bytes": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	var st resultcache.PruneStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.RemovedFiles == 0 || st.RemainingBytes != 0 {
		t.Fatalf("prune: %d %+v", resp.StatusCode, st)
	}
	// Pruned result is recomputed, not an error.
	r, err := s.Run(context.Background(), RunRequest{Bench: "gcc", Window: 2_000})
	if err != nil || r.TimeFS <= 0 {
		t.Fatalf("run after prune: %v %+v", err, r)
	}

	// A fresh service with a tiny cap prunes at startup.
	s.Close()
	s2 := newTestService(t, Config{CacheDir: dir, Workers: 1, CacheMaxBytes: 1})
	if got := dirSize(t, dir); got > 1 {
		t.Fatalf("startup prune left %d bytes, cap 1", got)
	}
	_ = s2
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}

// TestPoolSurvivesPanickingCellThroughService: a panic inside a cell
// becomes the request's error; later requests keep working (the contract
// the PR-2 scheduler test pinned, now via the shared pool).
func TestPoolSurvivesPanickingCellThroughService(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if err := s.pool.ExecuteContext(context.Background(), PriorityNormal, []func(){func() { panic("boom") }}); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking cell returned %v, want wrapped panic", err)
	}
	if r, err := s.Run(context.Background(), RunRequest{Bench: "gcc", Window: 1_000}); err != nil || r.TimeFS <= 0 {
		t.Fatalf("service dead after cell panic: %v %+v", err, r)
	}
}

// TestTwoServicesIsolated: two services in one process keep to their own
// cache directories — each one's sweep and suite blobs land only there —
// and closing one leaves the other persisting.
func TestTwoServicesIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("suite pipeline in -short mode")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newTestService(t, Config{CacheDir: dirA, Workers: 2})
	b := newTestService(t, Config{CacheDir: dirB, Workers: 2})
	ctx := context.Background()
	sweepReq := func(window int64) SweepRequest {
		return SweepRequest{Space: "adaptive", Bench: "gcc", Window: window}
	}
	for _, step := range []struct {
		s      *Service
		window int64
	}{{a, 500}, {b, 600}} {
		if _, err := step.s.Sweep(ctx, sweepReq(step.window)); err != nil {
			t.Fatal(err)
		}
		if _, err := step.s.Suite(ctx, SuiteRequest{Window: step.window}); err != nil {
			t.Fatal(err)
		}
	}
	// Each directory holds its own suite plus three summaries: the sweep
	// request's and the suite's synchronous and adaptive sweeps.
	for _, dir := range []string{dirA, dirB} {
		if got := blobCount(t, dir, "suite"); got != 1 {
			t.Errorf("%s holds %d suite blobs, want 1", dir, got)
		}
		if got := blobCount(t, dir, "sweepsum"); got != 3 {
			t.Errorf("%s holds %d sweep summaries, want 3", dir, got)
		}
	}

	a.Close()
	if _, err := b.Sweep(ctx, sweepReq(700)); err != nil {
		t.Fatal(err)
	}
	if got := blobCount(t, dirB, "sweepsum"); got != 4 {
		t.Errorf("after closing the other service, %s holds %d sweep summaries, want 4", dirB, got)
	}
	if got := blobCount(t, dirA, "sweepsum"); got != 3 {
		t.Errorf("closed service's %s gained blobs: %d sweep summaries, want 3", dirA, got)
	}
}

// TestTwoServicesSameSuite: two services over separate directories sent
// the same suite request each load or compute it and persist it in their
// own directory; the process-local suite memo does not serve one service
// the other's result.
func TestTwoServicesSameSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite pipeline in -short mode")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newTestService(t, Config{CacheDir: dirA, Workers: 2})
	b := newTestService(t, Config{CacheDir: dirB, Workers: 2})
	req := SuiteRequest{Window: 400}
	sumA, err := a.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := b.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sumA, sumB) {
		t.Fatal("the two services returned different suites")
	}
	// The suite, its synchronous and adaptive sweeps, and its phase runs.
	for _, dir := range []string{dirA, dirB} {
		for kind, want := range map[string]int{"suite": 1, "sweepsum": 2, "phase": 1} {
			if got := blobCount(t, dir, kind); got != want {
				t.Errorf("%s holds %d %s blobs, want %d", dir, got, kind, want)
			}
		}
	}
}

// blobCount counts the result-cache entries of one kind under dir.
func blobCount(t *testing.T, dir, kind string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(filepath.Join(dir, kind), func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			n++
		}
		return nil
	})
	return n
}

// TestQueueFullSurfacesAs503: a service whose cell queue is saturated
// rejects new requests with ErrQueueFull, which HTTP maps to 503. (The
// priority/backpressure ordering contract itself is pinned by the pool's
// own tests in internal/sweep.)
func TestQueueFullSurfacesAs503(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	defer func() { close(gate) }()
	started := make(chan struct{})
	go s.pool.ExecuteContext(context.Background(), PriorityNormal, []func(){func() { close(started); <-gate }})
	<-started
	// Worker occupied; fill the 1-cell queue, then overflow it.
	go s.pool.ExecuteContext(context.Background(), PriorityNormal, []func(){func() {}})
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Run(context.Background(), RunRequest{Bench: "gcc", Window: 1_000})
	if err != ErrQueueFull {
		t.Fatalf("overflowing run returned %v, want ErrQueueFull", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	blob, _ := json.Marshal(RunRequest{Bench: "art", Window: 1_000})
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full HTTP status %d, want 503", resp.StatusCode)
	}
}

func TestRunBatchShapesAndErrors(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	items := s.RunBatch(context.Background(), []RunRequest{
		{Bench: "gcc", Window: 2_000},
		{Bench: "does-not-exist"},
		{Bench: "gcc", Window: 2_000}, // identical to the first: shared/cached
	})
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	if items[0].Result == nil || items[0].Error != "" {
		t.Fatalf("item 0 failed: %+v", items[0])
	}
	if items[1].Result != nil || items[1].Error == "" {
		t.Fatalf("item 1 should have failed: %+v", items[1])
	}
	if items[2].Result == nil || items[2].Result.TimeFS != items[0].Result.TimeFS {
		t.Fatalf("identical batch entries disagree: %+v vs %+v", items[2], items[0])
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("batch ran %d simulations, want 1", got)
	}
}

// TestRunBatchDedupsWithoutCache: identical batch items must collapse to
// one simulation even with persistence disabled — the lane planner runs
// them back-to-back (no in-flight twin for singleflight), so the lane
// itself reuses the first result.
func TestRunBatchDedupsWithoutCache(t *testing.T) {
	s := newTestService(t, Config{Workers: 2}) // no CacheDir
	items := s.RunBatch(context.Background(), []RunRequest{
		{Bench: "gcc", Window: 2_000},
		{Bench: "gcc", Window: 2_000, Priority: 5}, // same result, other priority
		{Bench: "gcc", Window: 2_000},
	})
	for i, it := range items {
		if it.Result == nil {
			t.Fatalf("item %d failed: %s", i, it.Error)
		}
		if it.Result.TimeFS != items[0].Result.TimeFS {
			t.Fatalf("item %d diverged", i)
		}
	}
	if !items[1].Result.Deduped || !items[2].Result.Deduped {
		t.Fatalf("duplicates not marked deduped: %+v %+v", items[1].Result, items[2].Result)
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("cacheless batch ran %d simulations, want 1", got)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}
	post := func(path string, body any) (*http.Response, []byte) {
		blob, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, body := get("/v1/workloads")
	if resp.StatusCode != 200 {
		t.Fatalf("workloads: %d %s", resp.StatusCode, body)
	}
	var wls []map[string]string
	if err := json.Unmarshal(body, &wls); err != nil || len(wls) != 40 {
		t.Fatalf("workloads decode: %v (%d entries)", err, len(wls))
	}

	resp, body = post("/v1/run", RunRequest{Bench: "gcc", Window: 2_000})
	if resp.StatusCode != 200 {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	var rr RunResult
	if err := json.Unmarshal(body, &rr); err != nil || rr.TimeFS <= 0 {
		t.Fatalf("run decode: %v %+v", err, rr)
	}

	if resp, body := post("/v1/run", RunRequest{Bench: "gcc", Mode: "quantum"}); resp.StatusCode != 400 || !bytes.Contains(body, []byte("error")) {
		t.Fatalf("bad mode: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("/v1/batch", map[string]any{"runs": []RunRequest{}}); resp.StatusCode != 400 {
		t.Fatalf("empty batch accepted: %d", resp.StatusCode)
	}
	if resp, body := post("/v1/experiment", map[string]any{"id": "no-such-figure"}); resp.StatusCode != 400 {
		t.Fatalf("unknown experiment: %d %s", resp.StatusCode, body)
	}

	resp, body = post("/v1/experiment", map[string]any{"id": "table1"})
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("Rows")) {
		t.Fatalf("table1: %d %s", resp.StatusCode, body)
	}

	resp, body = get("/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Simulations != 1 || st.Workers != 2 {
		t.Fatalf("stats content: %+v", st)
	}
}

// TestHTTPConcurrentIdenticalRequests drives the dedup acceptance check
// through the real HTTP surface: identical concurrent POST /v1/run bodies
// collapse to one underlying simulation.
func TestHTTPConcurrentIdenticalRequests(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	blob, _ := json.Marshal(RunRequest{Bench: "em3d", Mode: "phase", Window: 15_000})
	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(blob))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("%d identical HTTP requests ran %d simulations, want 1", callers, got)
	}
}

func TestSweepSmallAdaptiveSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	s := newTestService(t, Config{CacheDir: t.TempDir()})
	res, err := s.Sweep(context.Background(), SweepRequest{Space: "adaptive", Bench: "art", Window: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs != 256 || res.Benchmarks != 1 || res.Best == "" || len(res.PerApp) != 1 {
		t.Fatalf("sweep result malformed: %+v", res)
	}
	before := s.Stats().SweepComputations

	// Same sweep again: the measure layer serves the matrix from disk.
	res2, err := s.Sweep(context.Background(), SweepRequest{Space: "adaptive", Bench: "art", Window: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SweepComputations; got != before {
		t.Fatalf("warm sweep recomputed (%d -> %d)", before, got)
	}
	if res2.Best != res.Best || res2.PerApp[0].TimeFS != res.PerApp[0].TimeFS {
		t.Fatalf("warm sweep differs: %+v vs %+v", res2, res)
	}
}

// TestRunBatchTelemetryItemKeepsItsLane: a batch holding a plain run and
// the same run with telemetry gives each its own answer, as two separate
// requests would get: the telemetry item carries its artifact digest and
// the plain one none, in either order.
func TestRunBatchTelemetryItemKeepsItsLane(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	plain := RunRequest{Bench: "gcc", Window: 1_500}
	tel := plain
	tel.Telemetry = true
	for _, reqs := range [][]RunRequest{{plain, tel}, {tel, plain}} {
		items := s.RunBatch(context.Background(), reqs)
		for i, it := range items {
			if it.Result == nil {
				t.Fatalf("item %d failed: %s", i, it.Error)
			}
			if got, want := it.Result.Telemetry != "", reqs[i].Telemetry; got != want || it.Result.Deduped {
				t.Fatalf("item %d (telemetry %v): digest %q, deduped %v", i, want, it.Result.Telemetry, it.Result.Deduped)
			}
		}
	}
}
