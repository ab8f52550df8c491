// Chaos tests: every failure mode galsd is documented to degrade through,
// driven end to end (HTTP in, HTTP out) and pinned to the degradation
// contract — corrupt state recomputes bit-identically, saturation sheds
// load with Retry-After, deadlines map to 504 within their bound, and
// nothing leaks. They live in an external test package so they can exercise
// gals/client against a real handler.
package service_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gals/client"
	"gals/internal/faultinject"
	"gals/internal/service"
)

func newChaosService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// sameRun strips the provenance flags (Cached/Deduped legitimately differ
// between a computed and a recovered run) and compares everything that is
// the result.
func sameRun(a, b service.RunResult) bool {
	a.Cached, a.Deduped = false, false
	b.Cached, b.Deduped = false, false
	return reflect.DeepEqual(a, b)
}

// waitSettled polls until the goroutine count returns to within slack of
// base — the hand-rolled leak check: anything still running after the
// deadline is a leaked worker or watcher.
func waitSettled(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosCorruptCacheBlobRecovers corrupts persisted result blobs on disk
// and verifies the contract: the damaged entries read as misses, the run
// recomputes, and the recomputed result is identical to the original.
func TestChaosCorruptCacheBlobRecovers(t *testing.T) {
	dir := t.TempDir()
	svc := newChaosService(t, service.Config{CacheDir: dir, Workers: 2})
	req := service.RunRequest{Bench: "gcc", Window: 10_000}

	first, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second run was not a cache hit (test setup is wrong)")
	}

	// Overwrite every result blob (not the recordings) with garbage.
	blobs := 0
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.Contains(p, "recordings") {
			return nil
		}
		if werr := os.WriteFile(p, []byte("not json at all {{{"), 0o644); werr == nil {
			blobs++
		}
		return nil
	})
	if blobs == 0 {
		t.Fatal("no cache blobs found to corrupt")
	}

	got, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run against corrupt cache: %v", err)
	}
	if got.Cached {
		t.Fatal("corrupt blob served as a cache hit")
	}
	if !sameRun(first, got) {
		t.Fatalf("recomputed result differs from original:\n%+v\n%+v", got, first)
	}
}

// TestChaosInjectedCacheReadFaults drives the same recovery through the
// fault-injection hooks — error, corrupt and truncate modes — without
// touching the disk, and verifies that every mode misses the cache.
func TestChaosInjectedCacheReadFaults(t *testing.T) {
	defer faultinject.Disable()
	svc := newChaosService(t, service.Config{CacheDir: t.TempDir(), Workers: 2})
	req := service.RunRequest{Bench: "art", Window: 10_000}

	first, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"error", "corrupt", "truncate"} {
		if err := faultinject.Enable("resultcache.read=" + mode); err != nil {
			t.Fatal(err)
		}
		got, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if got.Cached {
			t.Fatalf("mode %s: injected read fault still served a hit", mode)
		}
		if !sameRun(first, got) {
			t.Fatalf("mode %s: recomputed result differs from original", mode)
		}
		faultinject.Disable()
	}
}

// TestChaosTruncatedSlabRerecords truncates a recording slab between two
// service lifetimes sharing a cache directory: the second service must
// detect the damage, re-record, and produce an identical result.
func TestChaosTruncatedSlabRerecords(t *testing.T) {
	dir := t.TempDir()
	req := service.RunRequest{Bench: "apsi", Window: 8_000}

	svc1, err := service.New(service.Config{CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	var slabs int
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".rec" {
			fi, _ := os.Stat(p)
			os.Truncate(p, fi.Size()/2)
			slabs++
		}
		return nil
	})
	if slabs == 0 {
		t.Fatal("no recording slabs found to truncate")
	}
	// Remove the result blobs too, so the second run must actually replay
	// the (re-recorded) trace rather than answering from the result cache.
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".json" {
			os.Remove(p)
		}
		return nil
	})

	svc2 := newChaosService(t, service.Config{CacheDir: dir, Workers: 2})
	got, err := svc2.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run against truncated slab: %v", err)
	}
	if !sameRun(first, got) {
		t.Fatal("re-recorded run differs from the original")
	}
	if s := svc2.Stats().Recordings; s.Rerecorded == 0 {
		t.Fatalf("recstore stats %+v, want Rerecorded > 0", s)
	}
}

// TestChaosSaturatedQueueShedsWithRetryAfter fills a tiny pool over HTTP
// and verifies load shedding: excess requests get 503 + Retry-After (not
// hangs, not 500s), accepted ones complete, and no goroutine outlives the
// server — the hand-rolled leak check of the CI chaos job.
func TestChaosSaturatedQueueShedsWithRetryAfter(t *testing.T) {
	base := runtime.NumGoroutine()

	svc, err := service.New(service.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())

	cl := client.New(client.Options{BaseURL: ts.URL, MaxAttempts: 1})
	var (
		mu       sync.Mutex
		ok, shed int
	)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := cl.Run(context.Background(),
				client.RunRequest{Bench: "gcc", Window: 200_000, Seed: seed})
			mu.Lock()
			defer mu.Unlock()
			var ae *client.APIError
			switch {
			case err == nil:
				ok++
			case errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable:
				if ae.RetryAfter <= 0 {
					t.Error("503 without a Retry-After")
				}
				shed++
			default:
				t.Errorf("unexpected failure: %v", err)
			}
		}(int64(i + 1))
	}
	wg.Wait()

	if ok == 0 || shed == 0 {
		t.Fatalf("saturation did not split: %d completed, %d shed (want both > 0)", ok, shed)
	}
	ts.Close()
	svc.Close()
	waitSettled(t, base, 4)
}

// TestCancelRunDeadline504 pins the deadline contract end to end: a run
// whose compute exceeds the server's -request-timeout returns 504, and the
// response arrives within the timeout plus one cancellation quantum's worth
// of slack — not after the full window would have simulated.
func TestCancelRunDeadline504(t *testing.T) {
	svc := newChaosService(t, service.Config{Workers: 2, RequestTimeout: 300 * time.Millisecond})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(client.Options{BaseURL: ts.URL, MaxAttempts: 1})

	start := time.Now()
	_, err := cl.Run(context.Background(),
		client.RunRequest{Bench: "gcc", Window: 2_000_000_000})
	elapsed := time.Since(start)

	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("Run = %v, want 504", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("504 took %v, want within the timeout plus scheduling slack", elapsed)
	}

	// The per-request timeout_ms field bounds a single request the same
	// way, without a server-wide deadline.
	svc2 := newChaosService(t, service.Config{Workers: 2})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := client.New(client.Options{BaseURL: ts2.URL, MaxAttempts: 1})
	_, err = cl2.Run(context.Background(),
		client.RunRequest{Bench: "gcc", Window: 2_000_000_000, TimeoutMS: 200})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms run = %v, want 504", err)
	}

	// With a cache directory the first request must also record the trace,
	// and a paper-scale recording dwarfs the deadline. The recording itself
	// observes cancellation, so the 504 still arrives promptly and the
	// abandoned slab never lands in the store.
	dir := t.TempDir()
	svc3 := newChaosService(t, service.Config{CacheDir: dir, Workers: 2, RequestTimeout: 300 * time.Millisecond})
	ts3 := httptest.NewServer(svc3.Handler())
	defer ts3.Close()
	cl3 := client.New(client.Options{BaseURL: ts3.URL, MaxAttempts: 1})
	start = time.Now()
	_, err = cl3.Run(context.Background(),
		client.RunRequest{Bench: "gcc", Window: 2_000_000_000})
	elapsed = time.Since(start)
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("cold-recording run = %v, want 504", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cold-recording 504 took %v, want within the timeout plus slack", elapsed)
	}
	slabs, _ := filepath.Glob(filepath.Join(dir, "recordings", "*", "*.rec"))
	if len(slabs) != 0 {
		t.Fatalf("abandoned recording left slabs on disk: %v", slabs)
	}
}

// TestCancelMidSweepDrainsAndRecovers cancels a sweep mid-flight via its
// deadline and pins the teardown contract: queued cells are purged (the
// Stats counter moves), the pool drains to idle, nothing partial persists,
// and the identical sweep rerun afterwards completes with results equal to
// a never-cancelled service's.
func TestCancelMidSweepDrainsAndRecovers(t *testing.T) {
	sweepReq := service.SweepRequest{Space: "adaptive", Bench: "gcc", Window: 60_000}

	dir := t.TempDir()
	svc := newChaosService(t, service.Config{CacheDir: dir, Workers: 2})
	short := sweepReq
	short.TimeoutMS = 250
	if _, err := svc.Sweep(context.Background(), short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep under 250ms deadline = %v, want DeadlineExceeded", err)
	}

	st := svc.Stats()
	if st.Purged == 0 {
		t.Fatalf("stats %+v, want Purged > 0 after mid-sweep cancel", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = svc.Stats()
		if st.InFlight == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain after cancel: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	got, err := svc.Sweep(context.Background(), sweepReq)
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}

	ref := newChaosService(t, service.Config{CacheDir: t.TempDir(), Workers: 2})
	want, err := ref.Sweep(context.Background(), sweepReq)
	if err != nil {
		t.Fatal(err)
	}
	got.Deduped, want.Deduped = false, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cancel sweep differs from a clean service's:\n%+v\n%+v", got, want)
	}
}

// TestCancelRacesShutdown races expiring request deadlines against
// Shutdown: in-flight runs are cancelled while the service tears down its
// pools and slab references. Run under -race, this pins that the two
// teardown paths never double-release, and that the cache directory is
// left reusable.
func TestCancelRacesShutdown(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(service.Config{
		CacheDir: dir, Workers: 2, RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Windows far beyond the 50ms deadline: every one of these
			// dies by deadline or by Close, whether it was caught still
			// recording the shared trace or already simulating.
			svc.Run(context.Background(),
				service.RunRequest{Bench: "gcc", Window: 500_000, Seed: seed})
		}(int64(i + 1))
	}
	time.Sleep(20 * time.Millisecond) // let the runs start expiring
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx, nil); err != nil {
		t.Fatalf("shutdown racing cancellations: %v", err)
	}
	wg.Wait()

	// The directory the race left behind must serve a fresh service.
	svc2 := newChaosService(t, service.Config{CacheDir: dir, Workers: 2})
	if _, err := svc2.Run(context.Background(), service.RunRequest{Bench: "gcc", Window: 5_000}); err != nil {
		t.Fatalf("cache dir unusable after racing shutdown: %v", err)
	}
}

// TestChaosRetryingClientMixedWorkload is the acceptance scenario: a
// rate-limited, fault-injected galsd serving a mixed workload to the
// retrying client, which must finish it with zero non-retryable failures.
func TestChaosRetryingClientMixedWorkload(t *testing.T) {
	defer faultinject.Disable()
	if err := faultinject.Enable("service.dispatch=error:0.2"); err != nil {
		t.Fatal(err)
	}
	svc := newChaosService(t, service.Config{
		CacheDir:  t.TempDir(),
		Workers:   2,
		RateLimit: 50, RateBurst: 8,
		AuthToken: "chaos-token",
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cl := client.New(client.Options{
		BaseURL:     ts.URL,
		Token:       "chaos-token",
		MaxAttempts: 10,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	})

	type op func() error
	var ops []op
	for i := 0; i < 12; i++ {
		seed := int64(i%4 + 1) // repeats: some hit cache/dedup, some compute
		ops = append(ops, func() error {
			res, err := cl.Run(context.Background(),
				client.RunRequest{Bench: "gcc", Window: 5_000, Seed: seed})
			if err == nil && res.Workload == "" {
				return fmt.Errorf("empty result")
			}
			return err
		})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, func() error {
			_, err := cl.ServerStats(context.Background())
			return err
		})
	}
	ops = append(ops, func() error {
		// Batch items carry per-item errors inside a 200 response, so the
		// client's transport-level retry can't see them; a well-behaved
		// batch caller re-submits failed items itself.
		reqs := []client.RunRequest{
			{Bench: "art", Window: 5_000}, {Bench: "apsi", Window: 5_000},
		}
		for attempt := 0; attempt < 10; attempt++ {
			items, err := cl.RunBatch(context.Background(), reqs)
			if err != nil {
				return err
			}
			var failed []client.RunRequest
			for i, it := range items {
				if it.Error != "" {
					failed = append(failed, reqs[i])
				}
			}
			if len(failed) == 0 {
				return nil
			}
			reqs = failed
		}
		return fmt.Errorf("batch items still failing after 10 rounds")
	})

	var wg sync.WaitGroup
	errs := make(chan error, len(ops))
	sem := make(chan struct{}, 4)
	for _, o := range ops {
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs <- o()
		}(o)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("mixed workload op failed through retries: %v", err)
		}
	}
}
