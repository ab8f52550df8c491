// Package service is the concurrent simulation service behind cmd/galsd:
// every request — single runs, batches, design-space sweeps, whole suite
// pipelines — is decomposed into simulation cells executed on one shared
// bounded cell pool (internal/sweep), with singleflight deduplication of
// identical concurrent requests, a persistent content-addressed result
// cache (internal/resultcache) and an mmap-backed recording store
// (internal/recstore) shared with the experiment and sweep layers.
//
// The paper's evaluation burned ~300 CPU-months exploring this design
// space; the service's job is to make sure no configuration point is ever
// simulated twice per cache directory — whether the repeat comes from a
// second process (persistent cache), a concurrent identical request
// (singleflight), or a higher experiment layer (the suite memo, wired
// through the same store) — and that total parallelism stays exactly at the
// configured worker count no matter how requests mix: a 12,800-cell sweep
// fans out cell by cell on the same pool a /v1/run cell waits on, instead
// of spawning its own worker fleet.
//
// Request structs double as the JSON wire format of cmd/galsd and as the
// cache-key payloads: a request is normalized (defaults resolved, result-
// neutral fields like Priority and Workers zeroed) before hashing, so
// requests that must produce identical results share one cache entry.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/experiment"
	"gals/internal/faultinject"
	"gals/internal/flight"
	"gals/internal/metrics"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// Config configures a Service.
type Config struct {
	// CacheDir is the persistent cache directory: result blobs at the root
	// (internal/resultcache layout) and recorded instruction slabs under
	// "recordings/" (internal/recstore layout). "" disables persistence
	// (dedup and scheduling still work) and keeps recordings in heap.
	CacheDir string
	// Workers is the number of simulation workers (0 = GOMAXPROCS) — the
	// exact bound on concurrently executing cells across all requests.
	Workers int
	// QueueDepth bounds the pending-cell queue (0 = sweep.DefaultQueueDepth,
	// 65,536 cells); a request whose cells don't fit behind already-queued
	// work fails with ErrQueueFull. An idle pool admits a request of any
	// size — the bound sheds load, it does not cap sweep size.
	QueueDepth int
	// CacheMaxBytes, when > 0, prunes the persistent cache back under this
	// many bytes (least-recently-used files first) at startup and after
	// each computed sweep or suite.
	CacheMaxBytes int64
	// AuthToken, when non-empty, gates every /v1/* endpoint behind
	// "Authorization: Bearer <token>" (compared in constant time). The
	// /healthz liveness probe stays open. Empty disables authentication —
	// the historical lab-service behaviour.
	AuthToken string
	// RequestTimeout, when > 0, bounds every request's compute time: the
	// request context expires after this duration, the request's queued
	// cells are purged from the pool, running cells stop at their next
	// accounting-interval boundary, and HTTP maps the expiry to 504. A
	// client's timeout_ms can shorten the bound, never extend it. 0 leaves
	// requests unbounded (the historical behaviour).
	RequestTimeout time.Duration
	// RateLimit, when > 0, is the sustained request rate (requests/second)
	// each client — bearer token, or remote host when unauthenticated —
	// may submit to the compute endpoints (POST /v1/*); excess requests
	// are refused with 429 and a Retry-After header. RateBurst is the
	// bucket size (default ceil(RateLimit), minimum 1).
	RateLimit float64
	RateBurst int
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ (CPU and heap profiles, goroutine dumps, execution
	// traces). Off by default: profiling endpoints reveal internals and
	// cost CPU, so they are opt-in via galsd -pprof.
	EnablePprof bool
	// AccessLog, when non-nil, receives one JSON line per HTTP request
	// (request ID, method, path, status, bytes, duration). galsd wires
	// stderr behind -access-log.
	AccessLog io.Writer
	// TraceDir, when set, makes every /v1/run, /v1/sweep, /v1/suite and
	// /v1/experiment request record a span trace and write it as an
	// indented-JSON file into this directory (clients can also opt in per
	// request with ?trace=1, which returns the trace inline instead).
	TraceDir string
	// TelemetryCap bounds each telemetry-enabled run's sample and event
	// rings (0 = core.DefaultTelemetryCap). A saturated ring keeps the most
	// recent entries and reports the rotation in the artifact's Dropped
	// counters. galsd wires -telemetry-cap.
	TelemetryCap int
	// CheckpointEvery, when > 0 and CacheDir is set, makes sweep and suite
	// requests persist crash-safe progress checkpoints at this interval
	// (sweep.Options.CheckpointEvery): a killed or cancelled request's rerun
	// then resumes from the last checkpoint, skipping completed cells, with
	// a bit-identical final result. Shutdown cancels in-flight requests and
	// lets them flush a final checkpoint before the workers stop. 0 disables
	// checkpointing (the historical behaviour). galsd wires
	// -checkpoint-interval (default 15s).
	CheckpointEvery time.Duration
}

// Service executes simulation requests. Create with New, stop with Close.
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *resultcache.Cache
	recs    *recstore.Store
	pool    *sweep.Pool
	flight  flight.Group[string, any]
	limiter *rateLimiter

	// env carries cache and recs into every sweep and suite this service
	// runs; the zero Env when persistence is disabled.
	env sweep.Env

	// tracePools are per-window thin views over the recording store,
	// shared by single runs, batches and sweeps at that window.
	poolMu     sync.Mutex
	tracePools map[int64]*workload.Pool

	pruneMu sync.Mutex

	// shutCtx is cancelled when Shutdown decides to stop waiting for
	// in-flight requests (its drain deadline expired): every dispatched
	// request context is a child, so cancelling it makes running sweeps
	// flush a final checkpoint and return instead of being killed cold by
	// the pool closing under them.
	shutCtx    context.Context
	shutCancel context.CancelFunc

	sims        atomic.Int64 // simulations actually executed by this service
	dedups      atomic.Int64 // requests served by joining an in-flight twin
	quarantined atomic.Int64 // blobs quarantined by Scrub passes

	// Observability surface (internal/metrics): the registry behind
	// GET /metrics plus the event-sourced instruments the request path
	// observes directly. See initMetrics for the full series catalogue.
	reg          *metrics.Registry
	runSeconds   *metrics.Histogram
	dwellHist    *metrics.HistogramVec
	httpLatency  *metrics.HistogramVec
	httpRequests *metrics.CounterVec
	httpStatus   *metrics.CounterVec
	httpInFlight *metrics.Gauge
	rateLimited  *metrics.Counter

	runID    string       // per-process prefix for generated request IDs
	reqSeq   atomic.Int64 // request-ID sequence
	traceSeq atomic.Int64 // trace-file sequence
	logMu    sync.Mutex   // serializes access-log lines
}

// New creates a service and, when cfg.CacheDir is set, opens the persistent
// result cache and the recording store behind every endpoint: runs use
// them directly, and sweeps and suites receive them as their Options.Env.
// Nothing is installed process-wide, so several services in one process
// each keep to their own directory.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{cfg: cfg, tracePools: make(map[int64]*workload.Pool)}
	s.shutCtx, s.shutCancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		c, err := resultcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		rs, err := recstore.Open(filepath.Join(cfg.CacheDir, recstore.Subdir))
		if err != nil {
			return nil, err
		}
		s.cache = c
		s.recs = rs
		s.env = sweep.Env{Cache: c, Recordings: rs}
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.pool = sweep.NewPool(cfg.Workers, cfg.QueueDepth)
	s.runID = fmt.Sprintf("%x", time.Now().UnixNano())
	s.initMetrics()
	s.maybePrune()
	return s, nil
}

// ---------------------------------------------------------------------------
// Request tracing. A tracer rides the request context so the compute
// layers (Run's cell, the sweep's measure stage, the suite pipeline) can
// attach spans without new parameters on every signature; requests
// without one pay a context lookup and nil checks, nothing more.

type tracerKey struct{}

// WithTracer attaches a span tracer to ctx.
func WithTracer(ctx context.Context, tr *metrics.Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// tracerFrom extracts the request's tracer, nil when tracing is off.
func tracerFrom(ctx context.Context) *metrics.Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey{}).(*metrics.Tracer)
	return tr
}

// Close stops the workers (accepted cells still finish) and retires the
// per-window trace pools, returning their slab references so the recording
// store unmaps what no one else holds.
func (s *Service) Close() {
	s.pool.Close()
	// The workers are stopped: no cell can still be replaying, so retiring
	// the pools (and unmapping their slabs) is safe.
	s.poolMu.Lock()
	pools := s.tracePools
	s.tracePools = make(map[int64]*workload.Pool)
	s.poolMu.Unlock()
	for _, p := range pools {
		p.Retire()
	}
}

// Shutdown is the graceful stop behind galsd's SIGINT/SIGTERM handling, in
// dependency order: the HTTP server stops accepting connections and drains
// in-flight requests (whose cells drain the pool with them, bounded by
// ctx), then Close stops the workers, and finally one cache-prune pass enforces Config.CacheMaxBytes so the
// directory a stopped server leaves behind is within its configured bound.
// srv may be nil (no listener was started). The returned error is
// http.Server.Shutdown's (ctx expiry with requests still in flight).
func (s *Service) Shutdown(ctx context.Context, srv *http.Server) error {
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if err != nil {
		// The drain deadline expired with requests still in flight: cancel
		// them all (a running sweep purges its queued cells, flushes a final
		// progress checkpoint and returns) and give the handlers a bounded
		// moment to finish those flushes before Close stops the workers.
		s.shutCancel()
		deadline := time.Now().Add(5 * time.Second)
		for s.httpInFlight.Value() > 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}
	s.Close()
	s.maybePrune()
	return err
}

// Cache returns the persistent cache, or nil when persistence is disabled.
func (s *Service) Cache() *resultcache.Cache { return s.cache }

// Recordings returns the recording store, or nil when persistence is
// disabled.
func (s *Service) Recordings() *recstore.Store { return s.recs }

// tracePool returns the shared per-window trace pool (a thin view over the
// recording store), or nil when persistence is disabled — single runs then
// generate live traces and sweeps build transient in-memory pools, exactly
// as before the store existed.
func (s *Service) tracePool(window int64) *workload.Pool {
	if s.recs == nil || window <= 0 {
		return nil
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	p := s.tracePools[window]
	if p == nil {
		p = workload.NewBackedPool(window, s.recs)
		s.tracePools[window] = p
	}
	return p
}

// maybePrune enforces Config.CacheMaxBytes on the persistent cache
// (including recordings — a pruned slab is simply re-recorded).
func (s *Service) maybePrune() {
	if s.cache == nil || s.cfg.CacheMaxBytes <= 0 {
		return
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	s.cache.Prune(s.cfg.CacheMaxBytes)
}

// Prune removes least-recently-used cache files until the persistent cache
// fits in maxBytes (the admin surface behind POST /v1/cache/prune). It
// errors when persistence is disabled.
func (s *Service) Prune(maxBytes int64) (resultcache.PruneStats, error) {
	if s.cache == nil {
		return resultcache.PruneStats{}, fmt.Errorf("service: no persistent cache configured")
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	return s.cache.Prune(maxBytes)
}

// ScrubReport aggregates one startup-recovery pass (galsd -scrub): the
// result cache's debris reaping and blob quarantine, the recording store's
// slab validation, and the checkpoint garbage collection.
type ScrubReport struct {
	Cache           resultcache.ScrubStats `json:"cache"`
	Recordings      recstore.ScrubStats    `json:"recordings"`
	CheckpointsGCed int                    `json:"checkpoints_gced"`
}

// Scrub runs the startup-recovery pass over the persistent store: crashed-
// writer temp files and locks are reaped, undecodable result blobs are
// quarantined, invalid recording slabs deleted, and checkpoints whose
// parent summary already exists garbage-collected. It assumes no other
// process is writing the cache directory (galsd runs it before serving);
// live checkpoints — resume state for unfinished sweeps — are kept. It
// errors when persistence is disabled.
func (s *Service) Scrub() (ScrubReport, error) {
	var r ScrubReport
	if s.cache == nil {
		return r, fmt.Errorf("service: no persistent cache configured")
	}
	var err error
	if r.Cache, err = s.cache.Scrub(); err != nil {
		return r, err
	}
	if s.recs != nil {
		if r.Recordings, err = s.recs.Scrub(); err != nil {
			return r, err
		}
	}
	r.CheckpointsGCed = sweep.ScrubCheckpoints(s.cache)
	s.quarantined.Add(int64(r.Cache.Quarantined))
	return r, nil
}

// serve is the one request path behind Run, Sweep, Suite and Experiment;
// each endpoint brings only its normalized request's flight key and its
// compute. In order:
//   - dispatch: an injected dispatch fault (chaos testing a refusing
//     server — HTTP maps it to a retryable 503) rejects the request up
//     front, then its context is bounded by the server's -request-timeout
//     and timeoutMS, whichever is shorter, and parented on the shutdown
//     context;
//   - singleflight: concurrent requests with the same flightKey share one
//     compute, which runs under the first caller's bounded context. A
//     joiner waits under its own context; when the compute fails because
//     its runner's context ended, a joiner whose context is still live runs
//     its own compute. A finished flight is forgotten, so only in-flight
//     twins are shared (the persistent cache covers the sequential case);
//   - containment: a panicking compute becomes a "job panicked" error, so
//     one malformed request never unwinds a server goroutine, and its
//     flight still completes instead of wedging the key;
//   - dedups: shared reports (and the counter records) a caller that got
//     its result by joining an in-flight twin. A failed request is never
//     counted as shared.
func serve[R any](s *Service, ctx context.Context, timeoutMS int64, flightKey string,
	compute func(ctx context.Context) (R, error)) (out R, shared bool, err error) {
	if err := faultinject.Err(faultinject.ServiceDispatch); err != nil {
		return out, false, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || c < d {
			d = c
		}
	}
	var cancel context.CancelFunc
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	// A Shutdown that has given up draining cancels s.shutCtx, which
	// cancels the request here — so a long sweep flushes its checkpoint and
	// returns instead of being abandoned when the pool closes under it.
	defer context.AfterFunc(s.shutCtx, cancel)()

	v, shared, err := s.flight.Do(ctx, flightKey, func(ctx context.Context) (v any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: job panicked: %v", r)
			}
		}()
		return compute(ctx)
	})
	if err != nil {
		return out, false, err
	}
	if shared {
		s.dedups.Add(1)
	} else {
		s.flight.Forget(flightKey)
	}
	return v.(R), shared, nil
}

// keyDigest is how a key payload carries a policy artifact: by canonical
// digest, so artifact size never inflates key payloads while distinct
// artifacts can never alias. The empty artifact stays empty.
func keyDigest(blob string) string {
	if blob == "" {
		return ""
	}
	return "digest:" + control.BlobDigest(blob)
}

// checkRanges validates the fields every compute request shares. A zero
// pllScale means "default" and passes. The negated-range forms make NaN
// (possible from Go callers; JSON cannot encode it) fail validation instead
// of slipping past `x < 0` checks.
func checkRanges(window int64, jitter, pllScale float64, timeoutMS int64) error {
	switch {
	case window < 0:
		return fmt.Errorf("service: negative window %d", window)
	case !(jitter >= 0 && jitter <= 0.05):
		return fmt.Errorf("service: jitter fraction %v out of range [0, 0.05]", jitter)
	case pllScale != 0 && !(pllScale > 0):
		return fmt.Errorf("service: pll scale %v must be positive", pllScale)
	case timeoutMS < 0:
		return fmt.Errorf("service: negative timeout_ms %d", timeoutMS)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Single runs.

// RunRequest asks for one benchmark on one machine configuration. It is
// both the JSON body of POST /v1/run and, normalized with Priority zeroed,
// the cache-key payload.
type RunRequest struct {
	// Bench is the benchmark run name (e.g. "gcc", "adpcm decode").
	Bench string `json:"bench"`
	// Mode is "sync", "program" or "phase" (default "phase").
	Mode string `json:"mode,omitempty"`
	// ICache names the I-cache configuration: a Table 3 name in sync mode
	// (e.g. "64k1W"), a Table 2 name in adaptive modes (e.g. "16k1W").
	// Empty keeps the mode's default.
	ICache string `json:"icache,omitempty"`
	// DCache is the D/L2 configuration index 0..3 (Table 1).
	DCache int `json:"dcache,omitempty"`
	// IntIQ and FPIQ are issue-queue sizes (16/32/48/64; default 16).
	IntIQ int `json:"iq,omitempty"`
	FPIQ  int `json:"fq,omitempty"`
	// Window is the instruction window (default 100,000).
	Window int64 `json:"window,omitempty"`
	// Seed drives PLL lock times and jitter (default 42).
	Seed int64 `json:"seed,omitempty"`
	// JitterFrac enables per-edge clock jitter (0..0.05).
	JitterFrac float64 `json:"jitter,omitempty"`
	// PLLScale scales PLL lock times (default 0.1).
	PLLScale float64 `json:"pllscale,omitempty"`
	// Policy and PolicyParams select the adaptation policy for phase mode
	// (names from GET /v1/policies; params as "key=value,..."). Empty keeps
	// the paper controllers.
	Policy       string `json:"policy,omitempty"`
	PolicyParams string `json:"policy_params,omitempty"`
	// PolicyBlob carries the policy's structured artifact (the "learned"
	// policy's trained weights, as produced by the training pipeline).
	PolicyBlob string `json:"policy_blob,omitempty"`
	// Telemetry, when true, attaches a sampler to the run and persists its
	// adaptation series as a content-addressed "telemetry" artifact; the
	// response carries the artifact digest (RunResult.Telemetry) for
	// GET /v1/telemetry/<digest>. Result-neutral and excluded from the run
	// cache key: a telemetry run's Stats are bit-identical to a plain one.
	Telemetry bool `json:"telemetry,omitempty"`
	// Priority orders this request against others (higher first). It does
	// not affect the result and is excluded from the cache key.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS, when > 0, bounds this request's compute time in
	// milliseconds; the effective deadline is the shorter of this and the
	// server's -request-timeout. Result-neutral: excluded from the cache
	// key (a timed-out request caches nothing; a completed one is
	// identical however long it was allowed to take).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize resolves defaults and validates; the returned request is
// canonical (identical results <=> identical normalized requests).
func (r RunRequest) normalize() (RunRequest, error) {
	if r.Bench == "" {
		return r, fmt.Errorf("service: missing bench")
	}
	if _, ok := workload.ByName(r.Bench); !ok {
		return r, fmt.Errorf("service: unknown benchmark %q", r.Bench)
	}
	if r.Mode == "" {
		r.Mode = "phase"
	}
	switch r.Mode {
	case "sync", "program", "phase":
	default:
		return r, fmt.Errorf("service: unknown mode %q (want sync, program or phase)", r.Mode)
	}
	if r.Window == 0 {
		r.Window = 100_000
	}
	if r.IntIQ == 0 {
		r.IntIQ = 16
	}
	if r.FPIQ == 0 {
		r.FPIQ = 16
	}
	if r.Seed == 0 {
		r.Seed = 42
	}
	if r.PLLScale == 0 {
		r.PLLScale = 0.1
	}
	if err := checkRanges(r.Window, r.JitterFrac, r.PLLScale, r.TimeoutMS); err != nil {
		return r, err
	}
	_, cfg, err := r.machine()
	if err != nil {
		return r, err
	}
	// An adaptive I-cache name matches case-insensitively; store its
	// canonical spelling so every spelling shares one key.
	if r.Mode != "sync" && r.ICache != "" {
		r.ICache = cfg.ICache.String()
	}
	// An empty policy selects the paper controllers, so naming them
	// without params or artifact shares the default's key.
	if r.Policy == control.DefaultPolicy && r.PolicyParams == "" && r.PolicyBlob == "" {
		r.Policy = ""
	}
	return r, nil
}

// machine resolves the normalized request into a runnable spec and config.
func (r RunRequest) machine() (workload.Spec, core.Config, error) {
	spec, ok := workload.ByName(r.Bench)
	if !ok {
		return workload.Spec{}, core.Config{}, fmt.Errorf("service: unknown benchmark %q", r.Bench)
	}
	var cfg core.Config
	switch r.Mode {
	case "sync":
		cfg = core.DefaultSync()
		if r.ICache != "" {
			idx, ok := timing.SyncICacheIndexByName(r.ICache)
			if !ok {
				return spec, cfg, fmt.Errorf("service: unknown sync i-cache %q", r.ICache)
			}
			cfg.SyncICache = idx
		}
	case "program", "phase":
		mode := core.ProgramAdaptive
		if r.Mode == "phase" {
			mode = core.PhaseAdaptive
		}
		cfg = core.DefaultAdaptive(mode)
		if r.ICache != "" {
			found := false
			for _, c := range timing.ICacheConfigs() {
				if strings.EqualFold(c.String(), r.ICache) {
					cfg.ICache = c
					found = true
					break
				}
			}
			if !found {
				return spec, cfg, fmt.Errorf("service: unknown adaptive i-cache %q", r.ICache)
			}
		}
	default:
		return spec, cfg, fmt.Errorf("service: unknown mode %q", r.Mode)
	}
	cfg.DCache = timing.DCacheConfig(r.DCache)
	cfg.IntIQ = timing.IQSize(r.IntIQ)
	cfg.FPIQ = timing.IQSize(r.FPIQ)
	cfg.Seed = r.Seed
	cfg.JitterFrac = r.JitterFrac
	cfg.PLLScale = r.PLLScale
	cfg.Policy = r.Policy
	cfg.PolicyParams = r.PolicyParams
	cfg.PolicyBlob = r.PolicyBlob
	if err := cfg.Validate(); err != nil {
		return spec, cfg, err
	}
	return spec, cfg, nil
}

// RunResult is the outcome of one run.
type RunResult struct {
	Workload     string     `json:"workload"`
	Config       string     `json:"config"`
	TimeFS       int64      `json:"time_fs"`
	IPnsec       float64    `json:"ip_nsec"`
	Instructions int64      `json:"instructions"`
	Stats        core.Stats `json:"stats"`
	// Telemetry is the run's telemetry artifact digest (set only when the
	// request asked for telemetry), retrievable via
	// GET /v1/telemetry/<digest>. Never persisted into the run blob, so
	// cached run results stay byte-identical whether or not telemetry was
	// ever requested.
	Telemetry string `json:"telemetry,omitempty"`
	// Cached is true when the result came from the persistent cache
	// without simulating.
	Cached bool `json:"cached,omitempty"`
	// Deduped is true when this caller joined an identical in-flight
	// request instead of starting its own.
	Deduped bool `json:"deduped,omitempty"`
}

// runOne executes one simulation, replaying the shared per-window recording
// when the store is available (bit-identical to live generation) and
// generating live otherwise. Cancellation is observed while a cold
// recording streams to the store (the slab is abandoned, not half-written)
// and at accounting-interval boundaries during simulation; a cancelled run
// returns ctx's error and no result.
func (s *Service) runOne(ctx context.Context, spec workload.Spec, cfg core.Config, window int64, tel *core.Telemetry) (*core.Result, error) {
	tr := tracerFrom(ctx)
	var src core.InstSource
	span := "generate+measure"
	if p := s.tracePool(window); p != nil {
		recSpan := tr.Start("record", spec.Name)
		rec, err := p.GetContext(ctx, spec)
		recSpan.End()
		if err != nil {
			return nil, err
		}
		src, span = rec.Replay(), "replay+measure"
	} else {
		src = spec.NewTrace()
	}
	start := time.Now() // the histogram measures simulation, not recording
	simSpan := tr.Start(span, cfg.Label())
	res, err := core.NewMachineSource(src, cfg).RunWith(ctx, window, core.RunOptions{Telemetry: tel})
	simSpan.End()
	if err == nil {
		s.runSeconds.Observe(time.Since(start).Seconds())
	}
	return res, err
}

// keyPayload is the normalized request as its keys hash it: the
// result-neutral Priority, TimeoutMS and Telemetry zeroed and the blob
// artifact replaced by its digest.
func (r RunRequest) keyPayload() RunRequest {
	r.Priority, r.TimeoutMS, r.Telemetry = 0, 0, false
	r.PolicyBlob = keyDigest(r.PolicyBlob)
	return r
}

// cacheKey returns the normalized request's persistent-cache key.
func (r RunRequest) cacheKey() string { return resultcache.Key("run", r.keyPayload()) }

// telemetryKey returns the run's telemetry artifact key: the cacheKey
// payload under the "telemetry" kind, so the artifact is content-addressed
// by the run identity that produced it and a given digest always names the
// series of exactly one normalized request.
func (r RunRequest) telemetryKey() string { return resultcache.Key("telemetry", r.keyPayload()) }

// telemetryDigest extracts the hex digest a client uses against
// GET /v1/telemetry/<digest> from an artifact key ("telemetry/<digest>").
func telemetryDigest(key string) string {
	_, digest, _ := strings.Cut(key, "/")
	return digest
}

// persistTelemetry stores one sealed telemetry series under its artifact
// key and folds it into the observability surface: the process-wide
// artifact counters (runs, serialized bytes) and the per-structure dwell
// histogram. Returns false when persistence is disabled — the series then
// has no digest a client could fetch.
func (s *Service) persistTelemetry(key string, tel *core.Telemetry) bool {
	if s.cache == nil {
		return false
	}
	s.cache.Store(key, tel)
	blob, err := json.Marshal(tel)
	if err != nil {
		return false
	}
	core.NoteTelemetryArtifact(int64(len(blob)))
	s.observeDwell(tel)
	return true
}

// observeDwell feeds the reconfiguration dwell histogram: for every event,
// the number of decision intervals its structure spent in the previous
// configuration — cache structures dwell across accounting intervals,
// issue queues across ILP intervals. Computed from the artifact at persist
// time, never on the simulation path.
func (s *Service) observeDwell(tel *core.Telemetry) {
	// Boundary counts by kind, cumulative at each sample, let an event at
	// instruction i look up how many boundaries of its trigger kind have
	// passed; the difference between consecutive events of one structure is
	// its dwell in intervals.
	type mark struct {
		instr int64
		n     int64
	}
	counts := map[string][]mark{}
	var nCache, nIQ int64
	for i := range tel.Samples {
		sm := &tel.Samples[i]
		switch sm.Kind {
		case "cache":
			nCache++
			counts["cache-interval"] = append(counts["cache-interval"], mark{sm.Instr, nCache})
		case "iq":
			nIQ++
			counts["iq-interval"] = append(counts["iq-interval"], mark{sm.Instr, nIQ})
		}
	}
	intervalsAt := func(trigger string, instr int64) int64 {
		ms := counts[trigger]
		var n int64
		for _, m := range ms {
			if m.instr > instr {
				break
			}
			n = m.n
		}
		return n
	}
	last := map[string]int64{} // structure -> interval count at its last event
	for i := range tel.Events {
		ev := &tel.Events[i]
		at := intervalsAt(ev.Trigger, ev.Instr)
		s.dwellHist.With(ev.Structure).Observe(float64(at - last[ev.Structure]))
		last[ev.Structure] = at
	}
}

// Run executes (or serves from cache / an in-flight twin) one simulation,
// bounded by ctx, the server request timeout and the request's timeout_ms.
// A cancelled or expired run caches nothing and returns the context error;
// an identical later request recomputes and is bit-identical to what an
// unbounded run would have produced.
func (s *Service) Run(ctx context.Context, req RunRequest) (RunResult, error) {
	n, err := req.normalize()
	if err != nil {
		return RunResult{}, err
	}
	// A telemetry request joins its own singleflight lane: an in-flight
	// plain twin computes no artifact, so joining it would return a digest
	// that was never persisted. The persistent-cache key stays shared — the
	// run result is identical either way.
	key := n.cacheKey()
	telKey, flightKey := "", key
	if n.Telemetry {
		telKey, flightKey = n.telemetryKey(), key+"+telemetry"
	}
	out, shared, err := serve(s, ctx, n.TimeoutMS, flightKey, func(ctx context.Context) (RunResult, error) {
		tr := tracerFrom(ctx)
		var out RunResult
		lookup := tr.Start("cache-lookup", "run")
		if s.cache.Load(key, &out) && (!n.Telemetry || s.cache.Has(telKey)) {
			lookup.Annotate("run: hit")
			lookup.End()
			out.Cached = true
			out.Telemetry = telemetryDigest(telKey)
			return out, nil
		}
		lookup.End()
		spec, cfg, err := n.machine()
		if err != nil {
			return RunResult{}, err
		}
		var tel *core.Telemetry
		if n.Telemetry {
			tel = core.NewTelemetry(s.cfg.TelemetryCap)
		}
		cell := func() {
			res, rerr := s.runOne(ctx, spec, cfg, n.Window, tel)
			if rerr != nil {
				// Cancelled mid-run: ExecuteContext reports the batch's
				// ctx error; nothing to deliver.
				return
			}
			s.sims.Add(1)
			out = RunResult{
				Workload:     res.Workload,
				Config:       res.Config.Label(),
				TimeFS:       res.TimeFS,
				IPnsec:       res.IPnsec(),
				Instructions: res.Stats.Instructions,
				Stats:        res.Stats,
			}
		}
		cellSpan := tr.Start("cell", n.Bench)
		if err := s.pool.ExecuteContext(ctx, n.Priority, []func(){cell}); err != nil {
			cellSpan.End()
			return RunResult{}, err
		}
		cellSpan.Annotate(fmt.Sprintf("%s: %d reconfigs", n.Bench, out.Stats.Reconfigs))
		cellSpan.End()
		persist := tr.Start("persist", "run")
		// The run blob is stored before the digest is attached, so cached
		// results stay byte-identical whether telemetry was requested.
		s.cache.Store(key, out)
		if tel != nil && s.persistTelemetry(telKey, tel) {
			out.Telemetry = telemetryDigest(telKey)
			persist.Annotate("run+telemetry: " + out.Telemetry)
		}
		persist.End()
		return out, nil
	})
	out.Deduped = shared
	return out, err
}

// BatchItem is one entry of a batched run response: a result or an error.
type BatchItem struct {
	Result *RunResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// RunBatch executes the requests concurrently (bounded by the worker pool)
// and returns one item per request, in order. Items that normalize to the
// same cache key share one Run through a per-batch flight group, whether
// or not they overlap in time, and every such item after the first is
// marked Deduped (by position, so the flag does not depend on which item's
// goroutine reaches the group first). Telemetry items keep to their own
// lane, as in Run. Distinct items sharing a benchmark and window replay one
// recording via the per-window trace pool regardless of which worker runs
// them.
func (s *Service) RunBatch(ctx context.Context, reqs []RunRequest) []BatchItem {
	out := make([]BatchItem, len(reqs))
	var batch flight.Group[string, RunResult]
	seen := make(map[string]bool, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		n, err := reqs[i].normalize()
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		key := n.cacheKey()
		if n.Telemetry {
			key += "+telemetry"
		}
		dup := seen[key]
		seen[key] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := batch.Do(ctx, key, func(ctx context.Context) (RunResult, error) {
				return s.Run(ctx, reqs[i])
			})
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			if dup {
				r.Deduped = true
				s.dedups.Add(1)
			}
			out[i].Result = &r
		}()
	}
	wg.Wait()
	return out
}

// ---------------------------------------------------------------------------
// Design-space sweeps.

// PolicySetting pairs an adaptation-policy name with a parameter string in
// a phase-space sweep ({"name": "interval", "params": "interval=7500"}).
type PolicySetting = sweep.PolicySetting

// SweepRequest asks for a design-space sweep (paper Section 4).
type SweepRequest struct {
	// Space is "sync" (1,024 fully synchronous configurations), "adaptive"
	// (256 adaptive MCD configurations) or "phase" (Phase-Adaptive machines,
	// one per Policies entry — the adaptation-policy axis).
	Space string `json:"space"`
	// Bench optionally restricts the sweep to one benchmark.
	Bench string `json:"bench,omitempty"`
	// Quick prunes the sync space to its direct-mapped I-cache points.
	Quick bool `json:"quick,omitempty"`
	// Policies are the policy settings of a "phase" sweep (names from
	// GET /v1/policies). Empty defaults to every registered policy at its
	// default parameters. Rejected on other spaces.
	Policies []sweep.PolicySetting `json:"policies,omitempty"`
	// Window is the instruction window per run (default 30,000).
	Window int64 `json:"window,omitempty"`
	// Workers is accepted for wire compatibility but ignored: the sweep's
	// cells run on the service's shared pool, whose size is the -workers
	// flag (result-neutral either way).
	Workers int `json:"workers,omitempty"`
	// Seed, JitterFrac and PLLScale are as in RunRequest.
	Seed       int64   `json:"seed,omitempty"`
	JitterFrac float64 `json:"jitter,omitempty"`
	PLLScale   float64 `json:"pllscale,omitempty"`
	// Priority orders the sweep against other jobs (result-neutral).
	Priority int `json:"priority,omitempty"`
	// TimeoutMS, when > 0, bounds the sweep's compute time in milliseconds
	// (shorter of this and the server's -request-timeout). Result-neutral.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r SweepRequest) normalize() (SweepRequest, error) {
	switch r.Space {
	case "sync", "adaptive":
		if len(r.Policies) > 0 {
			return r, fmt.Errorf("service: policies are a phase-space axis (got space %q)", r.Space)
		}
	case "phase":
		if len(r.Policies) == 0 {
			// Every registered policy at default parameters — except
			// blob-requiring ones, which cannot be defaulted (there is no
			// artifact to default to).
			for _, in := range control.Infos() {
				if in.RequiresBlob {
					continue
				}
				r.Policies = append(r.Policies, sweep.PolicySetting{Name: in.Name})
			}
		}
		for _, p := range r.Policies {
			if err := control.ValidateSelection(p.Name, p.Params, p.Blob); err != nil {
				return r, fmt.Errorf("service: %w", err)
			}
		}
	default:
		return r, fmt.Errorf("service: unknown sweep space %q (want sync, adaptive or phase)", r.Space)
	}
	if r.Space != "sync" {
		r.Quick = false // it prunes only the sync space
	}
	if r.Bench != "" {
		if _, ok := workload.ByName(r.Bench); !ok {
			return r, fmt.Errorf("service: unknown benchmark %q", r.Bench)
		}
	}
	// Checked before defaulting, which would replace a negative window.
	if err := checkRanges(r.Window, r.JitterFrac, r.PLLScale, r.TimeoutMS); err != nil {
		return r, err
	}
	so := sweep.Options{Window: r.Window, Seed: r.Seed, PLLScale: r.PLLScale}.WithDefaults()
	r.Window, r.Seed, r.PLLScale = so.Window, so.Seed, so.PLLScale
	return r, nil
}

// cacheKey returns the normalized sweep's request key: result-neutral
// fields zeroed and policy-axis artifacts replaced by their digests.
func (r SweepRequest) cacheKey() string {
	r.Priority, r.Workers, r.TimeoutMS = 0, 0, 0
	if len(r.Policies) > 0 {
		ps := append([]sweep.PolicySetting(nil), r.Policies...)
		for i := range ps {
			ps[i].Blob = keyDigest(ps[i].Blob)
		}
		r.Policies = ps
	}
	return resultcache.Key("sweepreq", r)
}

// AppBest is one benchmark's best configuration in a sweep.
type AppBest struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	TimeFS int64  `json:"time_fs"`
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	Space      string `json:"space"`
	Configs    int    `json:"configs"`
	Benchmarks int    `json:"benchmarks"`
	Window     int64  `json:"window"`
	// Best is the best-overall configuration (lowest geometric-mean time).
	Best string `json:"best"`
	// PerApp is each benchmark's individually best configuration.
	PerApp  []AppBest `json:"per_app"`
	Deduped bool      `json:"deduped,omitempty"`
}

// Sweep measures a whole design space, streaming per-cell results into
// running best/mean accumulators (the full times matrix is never held).
// The summary is persisted by the sweep layer, so repeating a sweep (even
// from another process) reloads it instead of simulating.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (SweepResult, error) {
	n, err := req.normalize()
	if err != nil {
		return SweepResult{}, err
	}
	out, shared, err := serve(s, ctx, n.TimeoutMS, n.cacheKey(), func(ctx context.Context) (SweepResult, error) {
		specs := workload.Suite()
		if n.Bench != "" {
			spec, _ := workload.ByName(n.Bench)
			specs = []workload.Spec{spec}
		}
		var cfgs []core.Config
		switch n.Space {
		case "sync":
			if n.Quick {
				cfgs = sweep.QuickSyncSpace()
			} else {
				cfgs = sweep.SyncSpace()
			}
		case "phase":
			cfgs = sweep.PhaseSpace(n.Policies)
		default:
			cfgs = sweep.AdaptiveSpace()
		}
		sum, err := sweep.MeasureSummary(specs, cfgs, sweep.Options{
			Window: n.Window, Workers: n.Workers, Seed: n.Seed,
			JitterFrac: n.JitterFrac, PLLScale: n.PLLScale,
			Traces: s.tracePool(n.Window),
			Exec:   s.pool, Priority: n.Priority,
			Ctx:             ctx,
			Tracer:          tracerFrom(ctx),
			CheckpointEvery: s.cfg.CheckpointEvery,
			Env:             s.env,
		})
		if err != nil {
			return SweepResult{}, err
		}
		if sum.Best < 0 {
			return SweepResult{}, fmt.Errorf("service: sweep produced no finite run times")
		}
		out := SweepResult{
			Space: n.Space, Configs: len(cfgs), Benchmarks: len(specs),
			Window: n.Window, Best: cfgs[sum.Best].Label(),
		}
		for si, bi := range sum.PerApp {
			out.PerApp = append(out.PerApp, AppBest{
				Bench:  specs[si].Name,
				Config: cfgs[bi].Label(),
				TimeFS: sum.PerAppTimes[si],
			})
		}
		s.maybePrune()
		return out, nil
	})
	out.Deduped = shared
	return out, err
}

// ---------------------------------------------------------------------------
// Suite evaluation and experiment regeneration.

// SuiteRequest asks for the full Figure-6 evaluation pipeline.
type SuiteRequest struct {
	Window        int64   `json:"window,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	FullSyncSpace bool    `json:"full_sync_space,omitempty"`
	PLLScale      float64 `json:"pllscale,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	JitterFrac    float64 `json:"jitter,omitempty"`
	// Policy and PolicyParams select the adaptation policy of the
	// pipeline's Phase-Adaptive stages (default: the paper controllers);
	// PolicyBlob carries a blob-requiring policy's artifact.
	Policy       string `json:"policy,omitempty"`
	PolicyParams string `json:"policy_params,omitempty"`
	PolicyBlob   string `json:"policy_blob,omitempty"`
	Priority     int    `json:"priority,omitempty"`
	// TimeoutMS, when > 0, bounds the pipeline's compute time in
	// milliseconds (shorter of this and the server's -request-timeout).
	// Result-neutral: never part of a cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize rejects parameter values the simulator would panic on or
// produce garbage from (the zero value of every field is valid) and
// resolves the defaults options applies, so the normalized request has the
// same key.
func (r SuiteRequest) normalize() (SuiteRequest, error) {
	if err := checkRanges(r.Window, r.JitterFrac, r.PLLScale, r.TimeoutMS); err != nil {
		return r, err
	}
	if r.Policy != "" || r.PolicyParams != "" || r.PolicyBlob != "" {
		if err := control.ValidateSelection(r.Policy, r.PolicyParams, r.PolicyBlob); err != nil {
			return r, fmt.Errorf("service: %w", err)
		}
	}
	o := r.options()
	r.Window, r.PLLScale, r.Seed = o.Window, o.PLLScale, o.Seed
	return r, nil
}

func (r SuiteRequest) options() experiment.Options {
	o := experiment.DefaultOptions()
	if r.Window > 0 {
		o.Window = r.Window
	}
	o.Workers = r.Workers
	o.FullSyncSpace = r.FullSyncSpace
	if r.PLLScale != 0 {
		o.PLLScale = r.PLLScale
	}
	if r.Seed != 0 {
		o.Seed = r.Seed
	}
	o.JitterFrac = r.JitterFrac
	o.Policy = r.Policy
	o.PolicyParams = r.PolicyParams
	o.PolicyBlob = r.PolicyBlob
	return o
}

// keyPayload is the request's pipeline options as its keys hash them:
// Workers zeroed and the policy artifact replaced by its digest (the
// service wiring pipelineOptions adds is excluded from JSON).
func (r SuiteRequest) keyPayload() experiment.Options {
	o := r.options()
	o.Workers = 0
	o.PolicyBlob = keyDigest(o.PolicyBlob)
	return o
}

// cacheKey returns the suite request's key.
func (r SuiteRequest) cacheKey() string { return resultcache.Key("suitereq", r.keyPayload()) }

// pipelineOptions wires a suite or experiment request's pipeline to this
// service: the shared pool at the request's priority, the request's
// context and tracer, checkpointing and persistence.
func (s *Service) pipelineOptions(ctx context.Context, r SuiteRequest) experiment.Options {
	o := r.options()
	o.Exec, o.Priority, o.Ctx, o.Tracer = s.pool, r.Priority, ctx, tracerFrom(ctx)
	o.CheckpointEvery, o.Env = s.cfg.CheckpointEvery, s.env
	return o
}

// SuiteBench is one benchmark row of a suite summary.
type SuiteBench struct {
	Name       string  `json:"name"`
	ProgPct    float64 `json:"prog_pct"`
	PhasePct   float64 `json:"phase_pct"`
	ProgConfig string  `json:"prog_config"`
}

// SuiteSummary is the JSON-friendly digest of experiment.SuiteResult.
type SuiteSummary struct {
	BestSync   string       `json:"best_sync"`
	MeanProg   float64      `json:"mean_prog_pct"`
	MeanPhase  float64      `json:"mean_phase_pct"`
	Benchmarks []SuiteBench `json:"benchmarks"`
	Deduped    bool         `json:"deduped,omitempty"`
}

// Suite runs (or serves from the memo / persistent cache) the evaluation
// pipeline behind Figure 6, Table 9 and Figure 7. The pipeline's cells run
// on the service's shared pool at the request's priority.
func (s *Service) Suite(ctx context.Context, req SuiteRequest) (SuiteSummary, error) {
	req, err := req.normalize()
	if err != nil {
		return SuiteSummary{}, err
	}
	out, shared, err := serve(s, ctx, req.TimeoutMS, req.cacheKey(), func(ctx context.Context) (SuiteSummary, error) {
		r, err := experiment.RunSuite(s.pipelineOptions(ctx, req))
		if err != nil {
			return SuiteSummary{}, err
		}
		out := SuiteSummary{
			BestSync:  r.BestSync.Label(),
			MeanProg:  r.MeanProg,
			MeanPhase: r.MeanPhase,
		}
		for i, spec := range r.Specs {
			out.Benchmarks = append(out.Benchmarks, SuiteBench{
				Name:       spec.Name,
				ProgPct:    r.ProgImprovement(i),
				PhasePct:   r.PhaseImprovement(i),
				ProgConfig: r.ProgConfigs[i].Label(),
			})
		}
		s.maybePrune()
		return out, nil
	})
	out.Deduped = shared
	return out, err
}

// ExperimentRequest asks for one regenerated table or figure by ID.
type ExperimentRequest struct {
	ID string `json:"id"`
	SuiteRequest
}

// Experiment regenerates one of the paper's tables or figures. Identical
// concurrent requests share one regeneration; the table itself is not
// persisted (the suite and sweeps beneath it are).
func (s *Service) Experiment(ctx context.Context, req ExperimentRequest) (*experiment.Table, error) {
	if req.ID == "" {
		return nil, fmt.Errorf("service: missing experiment id")
	}
	var err error
	if req.SuiteRequest, err = req.normalize(); err != nil {
		return nil, err
	}
	key := resultcache.Key("experimentreq", struct {
		ID      string
		Options experiment.Options
	}{req.ID, req.keyPayload()})
	t, _, err := serve(s, ctx, req.TimeoutMS, key, func(ctx context.Context) (*experiment.Table, error) {
		return experiment.Run(req.ID, s.pipelineOptions(ctx, req.SuiteRequest))
	})
	return t, err
}

// ---------------------------------------------------------------------------
// Introspection.

// Stats is the service's operational snapshot (GET /v1/stats).
type Stats struct {
	// Workers is the pool size; Queued the pending (admitted, not yet
	// running) cells; InFlight the executing cells.
	Workers  int   `json:"workers"`
	Queued   int   `json:"queued"`
	InFlight int64 `json:"in_flight"`
	// Completed counts finished cells; Rejected counts queue-full refusals;
	// Purged counts cells removed unrun when their request was cancelled.
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	Purged    int64 `json:"purged"`
	// RateLimited counts requests refused with 429 by admission control.
	RateLimited int64 `json:"rate_limited"`
	// Simulations counts single-run simulations this service executed
	// (cache hits and deduped joins don't increment it).
	Simulations int64 `json:"simulations"`
	// DedupHits counts requests served by joining an in-flight twin.
	DedupHits int64 `json:"dedup_hits"`
	// SuiteComputations and SweepComputations are the process-wide
	// counters of actually-executed pipeline runs and sweep measurements.
	SuiteComputations int64 `json:"suite_computations"`
	SweepComputations int64 `json:"sweep_computations"`
	// CheckpointsWritten counts sweep/phase progress checkpoints persisted
	// (periodic plus cancellation flushes); CheckpointsResumed counts sweeps
	// that restored one instead of starting cold; ResumedCells the completed
	// cells those resumes skipped. Process-wide, like the computation
	// counters.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointsResumed int64 `json:"checkpoints_resumed"`
	ResumedCells       int64 `json:"resumed_cells"`
	// ScrubQuarantined counts undecodable cache blobs Scrub passes moved to
	// quarantine over this service's lifetime.
	ScrubQuarantined int64 `json:"scrub_quarantined"`
	// TelemetryRuns counts telemetry artifacts serialized in this process;
	// TelemetryBytes their total encoded size. Process-wide, read from the
	// same simulator-boundary atomics as /metrics.
	TelemetryRuns  int64 `json:"telemetry_runs"`
	TelemetryBytes int64 `json:"telemetry_bytes"`
	// FunctionalStreamBuilds counts Phase-Adaptive runs that started a
	// recording's functional stream (its configuration-independent work,
	// kept with the recording); FunctionalStreamReuses the runs that
	// attached to an existing one; FunctionalStreamBytes the heap the
	// streams of live recordings hold. Process-wide, like /metrics.
	FunctionalStreamBuilds int64 `json:"functional_stream_builds"`
	FunctionalStreamReuses int64 `json:"functional_stream_reuses"`
	FunctionalStreamBytes  int64 `json:"functional_stream_bytes"`
	// Cache reports the persistent cache's counters; CacheDir its root
	// ("" when persistence is disabled).
	Cache    resultcache.Stats `json:"cache"`
	CacheDir string            `json:"cache_dir,omitempty"`
	// Recordings reports the recording store's counters.
	Recordings recstore.Stats `json:"recordings"`
}

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Workers:            s.pool.Workers(),
		Queued:             s.pool.Pending(),
		InFlight:           s.pool.InFlight(),
		Completed:          s.pool.Completed(),
		Rejected:           s.pool.Rejected(),
		Purged:             s.pool.Purged(),
		RateLimited:        s.rateLimited.Value(),
		Simulations:        s.sims.Load(),
		DedupHits:          s.dedups.Load(),
		SuiteComputations:  experiment.SuiteComputations(),
		SweepComputations:  sweep.MeasureComputations(),
		CheckpointsWritten: sweep.CheckpointsWritten(),
		CheckpointsResumed: sweep.CheckpointsResumed(),
		ResumedCells:       sweep.ResumedCells(),
		ScrubQuarantined:   s.quarantined.Load(),
		TelemetryRuns:      core.TelemetryRuns(),
		TelemetryBytes:     core.TelemetryBytes(),

		FunctionalStreamBuilds: core.FunctionalStreamBuilds(),
		FunctionalStreamReuses: core.FunctionalStreamReuses(),
		FunctionalStreamBytes:  core.FunctionalStreamBytes(),
		Cache:                  s.cache.Stats(),
		CacheDir:               s.cache.Dir(),
	}
	if s.recs != nil {
		st.Recordings = s.recs.Stats()
	}
	return st
}
