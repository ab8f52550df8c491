package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/faultinject"
	"gals/internal/metrics"
	"gals/internal/workload"
)

// Handler returns the service's HTTP API:
//
//	GET  /healthz        liveness probe
//	GET  /v1/stats       scheduler, dedup and cache counters
//	GET  /v1/policies    the adaptation-policy registry (names, parameters)
//	GET  /v1/workloads   the benchmark suite
//	POST /v1/run         one simulation           (RunRequest -> RunResult)
//	GET  /v1/telemetry/<digest>  a telemetry artifact (core.Telemetry; digests from runs with telemetry:true)
//	POST /v1/batch       many simulations         ({"runs": [...]} -> {"results": [...]})
//	POST /v1/sweep       a design-space sweep     (SweepRequest -> SweepResult)
//	POST /v1/suite       the Figure-6 pipeline    (SuiteRequest -> SuiteSummary)
//	POST /v1/experiment  one table or figure      (ExperimentRequest -> experiment.Table)
//	POST /v1/cache/prune LRU-prune the cache      ({"max_bytes": N} -> resultcache.PruneStats)
//
// All bodies are JSON. Validation failures return 400, unknown experiment
// IDs 400, a full cell queue 503, all with {"error": "..."} bodies.
//
// The four compute endpoints — run, sweep, suite and experiment — record a
// span trace when asked: ?trace=1 returns it inline as
// {"result": ..., "trace": ...}, and Config.TraceDir writes every one to a
// file.
//
// When Config.AuthToken is set, every /v1/* endpoint requires
// "Authorization: Bearer <token>" and answers 401 otherwise; /healthz stays
// open so liveness probes need no credentials.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// The Prometheus scrape endpoint. Open like /healthz: it carries
	// operational counters, not results, and a scraper should not need
	// compute credentials to watch a saturated server.
	mux.Handle("GET /metrics", s.reg.Handler())

	if s.cfg.EnablePprof {
		// Explicit wiring instead of net/http/pprof's init-time
		// DefaultServeMux registration, so profiling only exists on
		// servers that opted in with -pprof.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /v1/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, control.Infos())
	})

	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		type wl struct {
			Name   string `json:"name"`
			Suite  string `json:"suite"`
			Window string `json:"window"`
		}
		var out []wl
		for _, spec := range workload.Suite() {
			out = append(out, wl{Name: spec.Name, Suite: spec.Suite, Window: spec.Window})
		}
		writeJSON(w, http.StatusOK, out)
	})

	post(s, mux, "run", s.Run)
	post(s, mux, "sweep", s.Sweep)
	post(s, mux, "suite", s.Suite)
	post(s, mux, "experiment", s.Experiment)

	mux.HandleFunc("GET /v1/telemetry/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		if !validDigest(digest) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed telemetry digest"})
			return
		}
		var tel core.Telemetry
		if s.cache == nil || !s.cache.Load("telemetry/"+digest, &tel) {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown telemetry digest"})
			return
		}
		writeJSON(w, http.StatusOK, &tel)
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Runs []RunRequest `json:"runs"`
		}
		if !readJSON(w, r, &req) {
			return
		}
		if len(req.Runs) == 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty batch"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": s.RunBatch(r.Context(), req.Runs)})
	})

	mux.HandleFunc("POST /v1/cache/prune", func(w http.ResponseWriter, r *http.Request) {
		// Admin endpoint: max_bytes overrides the server's -cache-max-bytes
		// for this pass (0 with no configured cap prunes everything).
		var req struct {
			MaxBytes *int64 `json:"max_bytes"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil && err != io.EOF { // empty body = use the configured cap
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		max := s.cfg.CacheMaxBytes
		if req.MaxBytes != nil {
			max = *req.MaxBytes
		} else if max <= 0 {
			// No explicit bound and no configured cap: refuse rather than
			// letting Prune(0) wipe the whole cache as a "default".
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "no cache cap configured; pass {\"max_bytes\": N} explicitly (0 clears everything)",
			})
			return
		}
		st, err := s.Prune(max)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	var h http.Handler = mux
	if s.limiter != nil {
		h = s.limit(h)
	}
	if s.cfg.AuthToken != "" {
		// Authentication wraps admission control: a request is charged to
		// its (already verified) token's bucket, and invalid credentials
		// are rejected before they can consume anyone's tokens.
		h = s.authenticate(h)
	}
	// Observation is outermost so every request — including 401s and 429s
	// the inner middleware produced — lands in the latency histograms,
	// status counters and the access log.
	return s.observe(h)
}

// post mounts the compute endpoint POST /v1/<name>: decode the request,
// attach a tracer when one is asked for, call fn, and write its result or
// its error (see writeErr).
func post[Q, R any](s *Service, mux *http.ServeMux, name string, fn func(context.Context, Q) (R, error)) {
	mux.HandleFunc("POST /v1/"+name, func(w http.ResponseWriter, r *http.Request) {
		var req Q
		if !readJSON(w, r, &req) {
			return
		}
		ctx, tr := s.traceCtx(r, name)
		res, err := fn(ctx, req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeTraced(w, r, res, s.finishTrace(name, tr))
	})
}

// traceCtx attaches a fresh span tracer to the request context when the
// client asked for one (?trace=1) or the server traces everything
// (Config.TraceDir); otherwise the context is returned untouched and the
// whole request path pays nil checks only.
func (s *Service) traceCtx(r *http.Request, name string) (context.Context, *metrics.Tracer) {
	if r.URL.Query().Get("trace") != "1" && s.cfg.TraceDir == "" {
		return r.Context(), nil
	}
	tr := metrics.NewTracer(name)
	return WithTracer(r.Context(), tr), tr
}

// finishTrace seals the request's trace and, when Config.TraceDir is set,
// writes it as an indented-JSON file (trace-<name>-<seq>.json). Returns
// the dump for inline delivery, nil when tracing was off.
func (s *Service) finishTrace(name string, tr *metrics.Tracer) *metrics.TraceDump {
	if tr == nil {
		return nil
	}
	dump := tr.Finish()
	if dir := s.cfg.TraceDir; dir != "" {
		if blob, err := json.MarshalIndent(dump, "", "  "); err == nil {
			file := fmt.Sprintf("trace-%s-%s-%06d.json", name, s.runID, s.traceSeq.Add(1))
			os.MkdirAll(dir, 0o755)
			os.WriteFile(filepath.Join(dir, file), blob, 0o644)
		}
	}
	return dump
}

// writeTraced delivers a result, wrapping it as {"result":…, "trace":…}
// when the client asked for the trace inline with ?trace=1. Server-side
// trace-dir dumping alone does not change the response shape.
func writeTraced(w http.ResponseWriter, r *http.Request, res any, dump *metrics.TraceDump) {
	if dump != nil && r.URL.Query().Get("trace") == "1" {
		writeJSON(w, http.StatusOK, map[string]any{"result": res, "trace": dump})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// authenticate gates /v1/* behind the configured bearer token. The
// comparison is constant time, so the token cannot be guessed byte by byte
// from response latency.
func (s *Service) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.AuthToken)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="galsd"`)
			writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "missing or invalid bearer token"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// validDigest accepts exactly the digests Run hands out: 64 lowercase hex
// characters (the sha256 half of a "telemetry/<digest>" cache key). Checked
// before the digest is spliced into a cache path.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

// writeErr maps service errors onto the degradation contract: deadline
// expiry is 504 (the server worked, the time budget ran out), transient
// capacity and chaos conditions — queue full, pool closed, injected
// dispatch fault, a caller-side cancellation — are 503 with a Retry-After
// so well-behaved clients back off instead of hammering; everything else
// is a caller mistake, 400 with no retry invitation.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed),
		errors.Is(err, faultinject.ErrInjected), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
