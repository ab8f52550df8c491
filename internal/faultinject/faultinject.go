// Package faultinject injects disk and dispatch faults at named hook
// points so the chaos tests (and an operator reproducing an incident) can
// exercise galsd's degradation paths on demand: corrupt result blobs,
// unreadable recording slabs, failed mmaps, ENOSPC on writes, slow I/O and
// per-call dispatch error rates.
//
// The package is off by default and zero-cost when disabled: every hook
// starts with one atomic load and returns immediately. Faults are enabled
// with Enable (a spec string, also read from $GALS_FAULTS at init, and
// exposed as galsd's -fault-inject flag) and are deterministic — a rate of
// 0.25 injects exactly every 4th call at the point, not a random sample —
// so chaos tests reproduce bit-identically.
//
// Spec grammar (comma-separated clauses):
//
//	<point>=<mode>[:<rate>[:<delay>]]
//
// where point is one of the Point constants, mode is "error", "enospc",
// "slow", "corrupt", "truncate" or "crash", rate is the injected fraction
// of calls in (0, 1] (default 1), and delay is a time.ParseDuration string
// for "slow" (default 10ms). "crash" aborts the whole process with
// os.Exit(3) at the scheduled hit — no deferred cleanup runs, exactly like
// a kill -9 at that point — so crash-recovery tests can die at a precise
// call site from a subprocess. Example:
//
//	resultcache.read=corrupt:1,service.dispatch=error:0.25,recstore.mmap=error:1
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault-injection hook site.
type Point string

// The wired hook points.
const (
	// ResultCacheRead covers resultcache.Cache.Load: "error" fails the
	// read, "corrupt"/"truncate" mutate the blob bytes before decoding
	// (the cache must treat either as a miss and recompute).
	ResultCacheRead Point = "resultcache.read"
	// ResultCacheWrite covers resultcache.Cache.Store: "error"/"enospc"
	// fail the write (the cache must degrade to a recompute next time,
	// never propagate).
	ResultCacheWrite Point = "resultcache.write"
	// RecstoreOpen covers recstore slab validation on open: an injected
	// error is indistinguishable from a corrupt slab, so the store must
	// delete and re-record (or degrade to in-memory recording).
	RecstoreOpen Point = "recstore.open"
	// RecstoreMap covers the slab mmap: an injected error must fall back
	// to a plain heap read, never fail the recording.
	RecstoreMap Point = "recstore.mmap"
	// ServiceDispatch covers service request dispatch: "error" refuses the
	// request (HTTP maps it to a retryable 503), "slow" stalls it.
	ServiceDispatch Point = "service.dispatch"
)

// ErrInjected is the root of every injected error; errors.Is(err,
// ErrInjected) distinguishes chaos from genuine faults.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrNoSpace is the injected ENOSPC variant.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

var validModes = map[string]bool{
	"error": true, "enospc": true, "slow": true, "corrupt": true, "truncate": true,
	"crash": true,
}

var validPoints = map[Point]bool{
	ResultCacheRead: true, ResultCacheWrite: true,
	RecstoreOpen: true, RecstoreMap: true, ServiceDispatch: true,
}

type plan struct {
	mode  string
	rate  float64
	delay time.Duration

	calls atomic.Uint64
}

// fire decides deterministically whether call number n injects: the count
// of injections after n calls is floor(n*rate), so a rate of 0.25 injects
// exactly calls 4, 8, 12, ... regardless of concurrency interleaving.
func (p *plan) fire() bool {
	n := p.calls.Add(1)
	return p.rate >= 1 || uint64(float64(n)*p.rate) > uint64(float64(n-1)*p.rate)
}

var (
	enabled atomic.Bool
	mu      sync.RWMutex
	plans   map[Point]*plan
)

func init() {
	if spec := os.Getenv("GALS_FAULTS"); spec != "" {
		if err := Enable(spec); err != nil {
			fmt.Fprintln(os.Stderr, "faultinject: ignoring $GALS_FAULTS:", err)
		}
	}
}

// Enable parses a fault spec and arms the hooks. It replaces any previous
// plan set wholesale; Enable("") is Disable.
func Enable(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disable()
		return nil
	}
	next := make(map[Point]*plan)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		pt, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("faultinject: clause %q is not <point>=<mode>[:rate[:delay]]", clause)
		}
		point := Point(strings.TrimSpace(pt))
		if !validPoints[point] {
			return fmt.Errorf("faultinject: unknown point %q", point)
		}
		parts := strings.Split(rest, ":")
		p := &plan{mode: strings.TrimSpace(parts[0]), rate: 1, delay: 10 * time.Millisecond}
		if !validModes[p.mode] {
			return fmt.Errorf("faultinject: unknown mode %q (want error, enospc, slow, corrupt, truncate or crash)", p.mode)
		}
		if len(parts) > 1 && parts[1] != "" {
			r, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || !(r > 0 && r <= 1) {
				return fmt.Errorf("faultinject: rate %q out of (0, 1]", parts[1])
			}
			p.rate = r
		}
		if len(parts) > 2 && parts[2] != "" {
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return fmt.Errorf("faultinject: bad delay %q", parts[2])
			}
			p.delay = d
		}
		if len(parts) > 3 {
			return fmt.Errorf("faultinject: clause %q has trailing fields", clause)
		}
		next[point] = p
	}
	mu.Lock()
	plans = next
	mu.Unlock()
	enabled.Store(len(next) > 0)
	return nil
}

// Disable disarms every hook; subsequent hook calls are one atomic load.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	plans = nil
	mu.Unlock()
}

// Active reports whether any fault plan is armed.
func Active() bool { return enabled.Load() }

func lookup(pt Point) *plan {
	mu.RLock()
	defer mu.RUnlock()
	return plans[pt]
}

// CrashExitCode is the status a "crash" plan aborts the process with;
// subprocess harnesses assert on it to distinguish an injected crash from a
// genuine panic or test failure.
const CrashExitCode = 3

// crashExit is swapped out by tests that need to observe a crash without
// dying; everything else gets the real os.Exit — abrupt, no deferred
// cleanup, the closest in-process stand-in for kill -9.
var crashExit = os.Exit

// Err returns the injected error for the point's next call, or nil. "slow"
// plans sleep here and return nil; "corrupt"/"truncate" plans belong to
// Mutate and never error; "crash" plans never return at all — the process
// exits with CrashExitCode at the scheduled hit.
func Err(pt Point) error {
	if !enabled.Load() {
		return nil
	}
	p := lookup(pt)
	if p == nil {
		return nil
	}
	switch p.mode {
	case "slow":
		if p.fire() {
			time.Sleep(p.delay)
		}
	case "error":
		if p.fire() {
			return fmt.Errorf("%s: %w", pt, ErrInjected)
		}
	case "enospc":
		if p.fire() {
			return fmt.Errorf("%s: %w", pt, ErrNoSpace)
		}
	case "crash":
		if p.fire() {
			fmt.Fprintf(os.Stderr, "faultinject: crash at %s (call %d)\n", pt, p.calls.Load())
			crashExit(CrashExitCode)
		}
	}
	return nil
}

// Mutate returns the blob a reader at the point should see: unchanged
// without an armed corrupt/truncate plan, otherwise a damaged copy (the
// input is never modified in place — it may be an mmap).
func Mutate(pt Point, b []byte) []byte {
	if !enabled.Load() {
		return b
	}
	p := lookup(pt)
	if p == nil || (p.mode != "corrupt" && p.mode != "truncate") || len(b) == 0 || !p.fire() {
		return b
	}
	if p.mode == "truncate" {
		return b[:len(b)/2]
	}
	out := make([]byte, len(b))
	copy(out, b)
	// Flip bytes spread across the blob so both JSON decoders and binary
	// header checks notice.
	for i := 0; i < len(out); i += 1 + len(out)/8 {
		out[i] ^= 0xff
	}
	return out
}
