// Command galsd serves the GALS simulator over HTTP/JSON: single runs,
// batched runs, design-space sweeps and experiment regeneration, backed by
// a bounded priority worker pool, singleflight deduplication of identical
// concurrent requests, and a persistent on-disk result cache shared with
// cmd/experiments and cmd/sweep.
//
// Usage:
//
//	galsd -addr :8347 -cache ~/.cache/gals
//	galsd -auth-token s3cret          # or GALSD_TOKEN=s3cret; gates /v1/*
//	galsd -request-timeout 2m         # 504 any request that computes longer
//	galsd -rate-limit 50 -rate-burst 100
//	galsd -tls-cert cert.pem -tls-key key.pem
//	galsd -fault-inject 'resultcache.read=corrupt:0.5'   # chaos drills
//	galsd -checkpoint-interval 15s    # crash-safe sweep progress (0 disables)
//	galsd -scrub=false                # skip the startup-recovery pass
//	galsd -telemetry-cap 8192         # ring capacity for "telemetry":true runs
//
// Endpoints (see README.md for request bodies):
//
//	GET  /healthz
//	GET  /v1/stats
//	GET  /v1/workloads
//	GET  /v1/telemetry/<digest>
//	POST /v1/run
//	POST /v1/batch
//	POST /v1/sweep
//	POST /v1/suite
//	POST /v1/experiment
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gals/internal/faultinject"
	"gals/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8347", "listen address")
		cache     = flag.String("cache", defaultCacheDir(), "persistent result cache directory (empty disables)")
		workers   = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "pending-cell queue bound (0 = 65536)")
		maxBytes  = flag.Int64("cache-max-bytes", 0, "LRU-prune the cache under this many bytes at startup and after computed sweeps/suites (0 = never)")
		token     = flag.String("auth-token", os.Getenv("GALSD_TOKEN"), "bearer token required on /v1/* endpoints (default $GALSD_TOKEN; empty disables auth)")
		reqTO     = flag.Duration("request-timeout", 0, "per-request compute deadline; expiry cancels the request's cells and returns 504 (0 = unbounded)")
		rateLimit = flag.Float64("rate-limit", 0, "per-client sustained rate on POST /v1/* in requests/second; excess gets 429 + Retry-After (0 = unlimited)")
		rateBurst = flag.Int("rate-burst", 0, "rate-limit burst size (0 = ceil(rate-limit))")
		tlsCert   = flag.String("tls-cert", "", "TLS certificate file; with -tls-key, serve HTTPS")
		tlsKey    = flag.String("tls-key", "", "TLS private key file")
		faults    = flag.String("fault-inject", os.Getenv("GALS_FAULTS"), "fault-injection spec, e.g. 'resultcache.read=corrupt:0.5,service.dispatch=error:0.1' (empty disables; see internal/faultinject)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		accessLog = flag.Bool("access-log", false, "write one JSON access-log line per request to stderr")
		traceDir  = flag.String("trace-dir", "", "dump a span-trace JSON file per run/sweep/suite request into this directory")
		ckptEvery = flag.Duration("checkpoint-interval", 15*time.Second, "persist sweep/suite progress checkpoints this often so a killed server resumes warm (0 disables)")
		telCap    = flag.Int("telemetry-cap", 0, "per-run telemetry ring capacity for runs requesting \"telemetry\":true — oldest samples/events are dropped beyond it (0 = default 4096)")
		scrub     = flag.Bool("scrub", true, "run a startup-recovery pass over the cache before serving: reap crashed-writer temp/lock files, quarantine undecodable blobs, drop invalid recording slabs, GC stale checkpoints")
	)
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "galsd: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if *queue < 0 {
		fmt.Fprintf(os.Stderr, "galsd: -queue must be >= 0, got %d\n", *queue)
		os.Exit(2)
	}
	if *maxBytes < 0 {
		fmt.Fprintf(os.Stderr, "galsd: -cache-max-bytes must be >= 0, got %d\n", *maxBytes)
		os.Exit(2)
	}
	if *reqTO < 0 || *rateLimit < 0 || *rateBurst < 0 || *ckptEvery < 0 {
		fmt.Fprintln(os.Stderr, "galsd: -request-timeout, -rate-limit, -rate-burst and -checkpoint-interval must be >= 0")
		os.Exit(2)
	}
	if *telCap < 0 {
		fmt.Fprintf(os.Stderr, "galsd: -telemetry-cap must be >= 0, got %d\n", *telCap)
		os.Exit(2)
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "galsd: -tls-cert and -tls-key must be set together")
		os.Exit(2)
	}
	if err := faultinject.Enable(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "galsd:", err)
		os.Exit(2)
	}
	if faultinject.Active() {
		fmt.Fprintf(os.Stderr, "galsd: FAULT INJECTION ARMED (%s) — not for production service\n", *faults)
	}

	var logW io.Writer
	if *accessLog {
		logW = os.Stderr
	}
	svc, err := service.New(service.Config{
		CacheDir: *cache, Workers: *workers, QueueDepth: *queue,
		CacheMaxBytes: *maxBytes, AuthToken: *token,
		RequestTimeout: *reqTO, RateLimit: *rateLimit, RateBurst: *rateBurst,
		EnablePprof: *pprofOn, AccessLog: logW, TraceDir: *traceDir,
		CheckpointEvery: *ckptEvery, TelemetryCap: *telCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsd:", err)
		os.Exit(1)
	}

	// Startup recovery: with a persistent cache, reap whatever a crashed
	// predecessor left behind before accepting traffic. The report is one
	// structured line so crash-loop debris growth is visible in logs.
	if *scrub && *cache != "" {
		rep, err := svc.Scrub()
		if err != nil {
			svc.Close()
			fmt.Fprintln(os.Stderr, "galsd: scrub:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(map[string]any{"msg": "galsd scrub", "report": rep})
		fmt.Println(string(line))
	}

	// WriteTimeout caps how long a response may take to compute AND write,
	// so it must sit above the compute deadline: -request-timeout plus
	// headroom for serialization and slow readers. With no request timeout
	// it stays unset — a suite request legitimately computes for minutes,
	// and an unconditional cap would kill it mid-flight.
	writeTO := time.Duration(0)
	if *reqTO > 0 {
		writeTO = *reqTO + 30*time.Second
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute, // a request body (batch of runs) is at most ~1 MiB: a minute is generous, a slow-loris gets cut
		WriteTimeout:      writeTO,
		IdleTimeout:       2 * time.Minute,
	}

	// Listen before serving so the ACTUAL bound address can be announced:
	// with -addr :0 the kernel picks the port, and tools that spawn a
	// throwaway galsd (galsload -launch) parse it from the startup line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		fmt.Fprintln(os.Stderr, "galsd:", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			errc <- srv.ServeTLS(ln, *tlsCert, *tlsKey)
			return
		}
		errc <- srv.Serve(ln)
	}()
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	fmt.Printf("galsd: listening on %s (%s, cache %q)\n", ln.Addr(), scheme, *cache)

	// One structured line with the effective configuration, so a log
	// aggregator (or a human reading journald) sees exactly what this
	// instance is running with — including what the defaults resolved to.
	summary, _ := json.Marshal(map[string]any{
		"msg": "galsd started", "addr": ln.Addr().String(), "scheme": scheme,
		"cache": *cache, "workers": *workers, "queue": *queue,
		"cache_max_bytes": *maxBytes, "auth": *token != "",
		"request_timeout": reqTO.String(), "rate_limit": *rateLimit,
		"rate_burst": *rateBurst, "pprof": *pprofOn,
		"access_log": *accessLog, "trace_dir": *traceDir,
		"fault_injection":     faultinject.Active(),
		"checkpoint_interval": ckptEvery.String(), "scrub": *scrub,
		"telemetry_cap": *telCap,
	})
	fmt.Println(string(summary))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		fmt.Fprintln(os.Stderr, "galsd:", err)
		os.Exit(1)
	case sig := <-sigc:
		// Graceful stop: the listener closes and in-flight requests drain
		// (their simulation cells with them), then the pool stops and a
		// final prune pass leaves the cache within -cache-max-bytes.
		fmt.Printf("galsd: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx, srv); err != nil {
			// The drain deadline expired: Shutdown cancelled the stragglers
			// and flushed their progress checkpoints, so their reruns resume
			// warm. That is the designed outcome of a stop under load, not a
			// failure — report it and exit clean.
			fmt.Fprintln(os.Stderr, "galsd: shutdown: cancelled in-flight requests after drain deadline, progress checkpointed:", err)
		}
	}
}

// defaultCacheDir resolves the user cache directory, falling back to a
// local directory when the environment doesn't define one.
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "gals")
	}
	return ".gals-cache"
}
