package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gals/internal/metrics"
)

// doJSON posts body to url and decodes the response into out, failing the
// test on transport errors. Returns the response status and request ID.
func doJSON(t *testing.T, method, url, body string, out any) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if method == http.MethodGet {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Request-Id")
}

func scrape(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q, want text/plain", ct)
	}
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	return sc
}

// TestMetricsEndpoint drives real traffic and checks the scrape: the
// exposition parses, the per-endpoint latency histogram saw the requests,
// the cache counters moved, and the queue-depth gauge exists.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"bench": "gcc", "window": 3000}`
	var run RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &run)
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &run) // cache hit
	if !run.Cached {
		t.Fatalf("second identical run not served from cache")
	}

	sc := scrape(t, srv.URL)
	if typ := sc.Types["gals_http_request_seconds"]; typ != "histogram" {
		t.Errorf("gals_http_request_seconds TYPE = %q, want histogram", typ)
	}
	buckets := sc.Buckets("gals_http_request_seconds", metrics.Label{Key: "endpoint", Value: "/v1/run"})
	if len(buckets) == 0 {
		t.Fatalf("no latency buckets for /v1/run")
	}
	last := buckets[len(buckets)-1]
	if last.CumulativeCount < 2 {
		t.Errorf("latency histogram counted %v requests, want >= 2", last.CumulativeCount)
	}
	if hits, ok := sc.Value("gals_cache_hits_total"); !ok || hits < 1 {
		t.Errorf("gals_cache_hits_total = %v (present %v), want >= 1", hits, ok)
	}
	if _, ok := sc.Value("gals_pool_queue_depth"); !ok {
		t.Errorf("gals_pool_queue_depth gauge missing")
	}
	if runs, ok := sc.Value("gals_sim_runs_total"); !ok || runs < 1 {
		t.Errorf("gals_sim_runs_total = %v (present %v), want >= 1", runs, ok)
	}
	if v, ok := sc.Value("gals_build_info"); !ok || v != 1 {
		t.Errorf("gals_build_info = %v (present %v), want 1", v, ok)
	}
	if code, ok := sc.Value("gals_http_responses_total", metrics.Label{Key: "code", Value: "200"}); !ok || code < 2 {
		t.Errorf("gals_http_responses_total{code=200} = %v (present %v), want >= 2", code, ok)
	}
}

// TestMetricsMatchStats pins the consistency satellite: every counter
// /v1/stats reports must agree with its /metrics series at rest (both
// read the same authoritative atomics).
func TestMetricsMatchStats(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2, RateLimit: 1000})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"bench": "gcc", "window": 3000}`
	var run RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &run)
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &run)
	// A second cold phase run of the same recording starts its functional
	// stream.
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "gcc", "window": 3000, "seed": 7}`, &run)

	var st Stats
	doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "", &st)
	sc := scrape(t, srv.URL)

	pairs := []struct {
		series string
		stat   int64
	}{
		{"gals_pool_cells_completed_total", st.Completed},
		{"gals_pool_cells_rejected_total", st.Rejected},
		{"gals_pool_cells_purged_total", st.Purged},
		{"gals_pool_steals_total", st.Steals},
		{"gals_pool_stolen_cells_total", st.StolenCells},
		{"gals_http_rate_limited_total", st.RateLimited},
		{"gals_dedup_hits_total", st.DedupHits},
		{"gals_simulations_total", st.Simulations},
		{"gals_run_seconds_count", st.Simulations},
		{"gals_cache_hits_total", st.Cache.Hits},
		{"gals_cache_misses_total", st.Cache.Misses},
		{"gals_cache_puts_total", st.Cache.Puts},
		{"gals_cache_corrupt_total", st.Cache.Corrupt},
		{"gals_cache_evictions_total", st.Cache.Evictions},
		{"gals_recordings_recorded_total", st.Recordings.Recorded},
		{"gals_recordings_corrupt_total", st.Recordings.Corrupt},
		{"gals_checkpoints_written_total", st.CheckpointsWritten},
		{"gals_checkpoints_resumed_total", st.CheckpointsResumed},
		{"gals_resumed_cells_total", st.ResumedCells},
		{"gals_scrub_quarantined_total", st.ScrubQuarantined},
		{"gals_telemetry_runs_total", st.TelemetryRuns},
		{"gals_telemetry_bytes_total", st.TelemetryBytes},
	}
	for _, p := range pairs {
		v, ok := sc.Value(p.series)
		if !ok {
			t.Errorf("series %s missing from /metrics", p.series)
			continue
		}
		if int64(v) != p.stat {
			t.Errorf("%s = %v but /v1/stats reports %d", p.series, v, p.stat)
		}
	}

	if st.FunctionalStreamBuilds < 1 {
		t.Errorf("functional_stream_builds = %d after two cold phase runs of one recording, want >= 1", st.FunctionalStreamBuilds)
	}
	for _, p := range []struct {
		event string
		stat  int64
	}{{"build", st.FunctionalStreamBuilds}, {"reuse", st.FunctionalStreamReuses}} {
		v, ok := sc.Value("gals_functional_streams_total", metrics.Label{Key: "event", Value: p.event})
		if !ok || int64(v) != p.stat {
			t.Errorf("gals_functional_streams_total{event=%s} = %v (present %v) but /v1/stats reports %d", p.event, v, ok, p.stat)
		}
	}
	// The resident-bytes gauge drops whenever a garbage-collected
	// recording's stream is released, which can happen between any two
	// reads; compare it only across a window in which /v1/stats saw it
	// hold still.
	for attempt := 0; ; attempt++ {
		var before, after Stats
		doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "", &before)
		v, ok := scrape(t, srv.URL).Value("gals_functional_stream_bytes")
		doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "", &after)
		if before.FunctionalStreamBytes != after.FunctionalStreamBytes && attempt < 10 {
			continue
		}
		if !ok || int64(v) != after.FunctionalStreamBytes {
			t.Errorf("gals_functional_stream_bytes = %v (present %v) but /v1/stats reports %d", v, ok, after.FunctionalStreamBytes)
		}
		if after.FunctionalStreamBytes <= 0 {
			t.Errorf("functional_stream_bytes = %d with a live stream, want > 0", after.FunctionalStreamBytes)
		}
		break
	}
}

// TestRateLimitCounter pins the 429 accounting: refused requests land in
// both the stats field and the metric.
func TestRateLimitCounter(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, RateLimit: 0.001, RateBurst: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"bench": "gcc", "window": 2000}`
	var saw429 bool
	for i := 0; i < 3; i++ {
		code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, nil)
		if code == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatalf("no request was rate limited at 0.001 rps burst 1")
	}
	var st Stats
	doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "", &st)
	if st.RateLimited < 1 {
		t.Errorf("stats.rate_limited = %d, want >= 1", st.RateLimited)
	}
	if v, _ := scrape(t, srv.URL).Value("gals_http_rate_limited_total"); int64(v) != st.RateLimited {
		t.Errorf("gals_http_rate_limited_total = %v, stats says %d", v, st.RateLimited)
	}
}

// TestTraceInline checks ?trace=1: the response wraps {"result","trace"}
// and the trace carries the run's span tree.
func TestTraceInline(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wrapped struct {
		Result RunResult          `json:"result"`
		Trace  *metrics.TraceDump `json:"trace"`
	}
	doJSON(t, http.MethodPost, srv.URL+"/v1/run?trace=1", `{"bench": "gcc", "window": 3000}`, &wrapped)
	if wrapped.Result.Workload == "" {
		t.Fatalf("traced response missing result: %+v", wrapped)
	}
	if wrapped.Trace == nil || wrapped.Trace.Name != "run" {
		t.Fatalf("traced response missing trace: %+v", wrapped.Trace)
	}
	var names []string
	for _, sp := range wrapped.Trace.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"cache-lookup", "cell", "persist"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace spans %v missing %q", names, want)
		}
	}
	// A cached repeat yields an honest short trace: lookup hit, no cell.
	doJSON(t, http.MethodPost, srv.URL+"/v1/run?trace=1", `{"bench": "gcc", "window": 3000}`, &wrapped)
	if !wrapped.Result.Cached {
		t.Fatalf("repeat was not cached")
	}
	for _, sp := range wrapped.Trace.Spans {
		if sp.Name == "cell" {
			t.Errorf("cached run trace contains a cell span")
		}
	}
	// Untraced requests keep the bare response shape.
	var bare RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "gcc", "window": 3000}`, &bare)
	if bare.Workload == "" {
		t.Errorf("untraced response shape changed: %+v", bare)
	}
}

// TestTraceDir checks the server-side dump path: with Config.TraceDir
// every run leaves a trace-*.json file that decodes as a TraceDump.
func TestTraceDir(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 1, TraceDir: dir})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var run RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "gcc", "window": 3000}`, &run)

	files, err := filepath.Glob(filepath.Join(dir, "trace-run-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace files = %v (err %v), want exactly one", files, err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump metrics.TraceDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("trace file does not decode: %v", err)
	}
	if dump.Name != "run" || len(dump.Spans) == 0 {
		t.Errorf("trace dump %+v, want name run with spans", dump)
	}
}

// TestAccessLog checks the structured log: one JSON line per request with
// the response's request ID, and X-Request-Id propagation.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	s := newTestService(t, Config{Workers: 1, AccessLog: &buf})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, id := doJSON(t, http.MethodGet, srv.URL+"/healthz", "", nil)
	if id == "" {
		t.Fatalf("no X-Request-Id on response")
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-Id", "my-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-req-42" {
		t.Errorf("client request ID not propagated: got %q", got)
	}

	// Wait for both lines to flush (the log write races the response).
	deadline := time.Now().Add(2 * time.Second)
	var lines []accessEntry
	for {
		lines = lines[:0]
		sc := bufio.NewScanner(strings.NewReader(buf.String()))
		for sc.Scan() {
			var e accessEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("access log line is not JSON: %q", sc.Text())
			}
			lines = append(lines, e)
		}
		if len(lines) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2", len(lines))
	}
	byID := map[string]accessEntry{}
	for _, e := range lines {
		byID[e.ID] = e
	}
	e, ok := byID["my-req-42"]
	if !ok {
		t.Fatalf("no access-log line for propagated request ID: %+v", lines)
	}
	if e.Path != "/v1/stats" || e.Status != http.StatusOK || e.Method != http.MethodGet {
		t.Errorf("access entry %+v, want GET /v1/stats 200", e)
	}
}

// TestPprofGate: the profiling mux is absent by default, mounted with
// EnablePprof.
func TestPprofGate(t *testing.T) {
	off := newTestService(t, Config{Workers: 1})
	srvOff := httptest.NewServer(off.Handler())
	defer srvOff.Close()
	if code, _ := doJSON(t, http.MethodGet, srvOff.URL+"/debug/pprof/", "", nil); code != http.StatusNotFound {
		t.Errorf("pprof reachable without -pprof: %d", code)
	}

	on := newTestService(t, Config{Workers: 1, EnablePprof: true})
	srvOn := httptest.NewServer(on.Handler())
	defer srvOn.Close()
	resp, err := http.Get(srvOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with -pprof: %d, want 200", resp.StatusCode)
	}
}

// syncBuffer is a mutex-guarded bytes buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
