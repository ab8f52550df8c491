package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gals/internal/learn"
	"gals/internal/metrics"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "figure2", "table2", "table3", "figure3", "figure4",
		"table4", "table5", "table6", "table7", "table8",
		"figure6", "table9", "figure7", "policies", "controllers",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], id)
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestStaticTablesRender(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "figure2", "figure3", "figure4"} {
		tab, err := Run(id, Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.Title) {
			t.Errorf("%s: render missing title", id)
		}
	}
}

func TestTable3Has16Rows(t *testing.T) {
	tab := Table3()
	if len(tab.Rows) != 16 {
		t.Errorf("Table 3 has %d rows, want 16", len(tab.Rows))
	}
}

func TestTable4MatchesPaperTotal(t *testing.T) {
	tab := Table4()
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Total" || last[2] != "4647" {
		t.Errorf("Table 4 total row = %v, want Total/4647 (paper)", last)
	}
}

func TestBenchmarkTablesPartitionSuite(t *testing.T) {
	n := len(Benchmarks("MediaBench").Rows) + len(Benchmarks("Olden").Rows) + len(Benchmarks("SPEC2000").Rows)
	if n != 40 {
		t.Errorf("benchmark tables cover %d runs, want 40", n)
	}
}

func TestFigure7SmallWindow(t *testing.T) {
	o := Options{Window: 40_000, PLLScale: 0.1, Seed: 42}
	tab, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("Figure 7 produced no trace rows")
	}
}

// TestFigure7LearnedPolicyWithoutSuite: with no memoized suite, Figure 7
// runs its two benchmarks under the requested policy selection, blob
// included; a learned policy must reach the machine with its artifact.
func TestFigure7LearnedPolicyWithoutSuite(t *testing.T) {
	blob, err := learn.Artifact(sweep.Env{}, learn.TrainOptions{Window: 6_000})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Window: 4_100, PLLScale: 0.1, Seed: 42, Policy: "learned", PolicyBlob: blob}
	if cachedSuite(o) != nil {
		t.Fatal("test options already have a memoized suite")
	}
	tab, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("Figure 7 has %d rows, want one per sampled benchmark at least", len(tab.Rows))
	}
}

// TestPolicyCompareLearnedPolicy: the frozen baseline drops the selected
// policy's blob along with its name, so a learned policy compares against
// frozen instead of failing every frozen cell ("policy \"frozen\" takes no
// blob artifact").
func TestPolicyCompareLearnedPolicy(t *testing.T) {
	blob, err := learn.Artifact(sweep.Env{}, learn.TrainOptions{Window: 6_000})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := PolicyCompare(Options{Window: 1_200, PLLScale: 0.1, Seed: 42, Policy: "learned", PolicyBlob: blob})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workload.Suite()) {
		t.Fatalf("policies table has %d rows, want one per benchmark", len(tab.Rows))
	}
}

// TestFigure7HonoursCtx: the fallback runs under the caller's context, so
// a cancelled request returns its error instead of simulating.
func TestFigure7HonoursCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Figure7(Options{Window: 4_200, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure7 under a cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestSuiteWaitHonoursCtx: while one suite computes, a cancelled request
// returns context.Canceled promptly, whether it asks for other Options or
// waits on the same computation; and the first computation, once
// cancelled, leaves nothing in the memo.
func TestSuiteWaitHonoursCtx(t *testing.T) {
	if testing.Short() {
		t.Skip("suite pipeline in -short mode")
	}
	p := sweep.NewPool(1, 0)
	defer p.Close()
	started := make(chan struct{})
	var once sync.Once
	p.SetObserver(func(time.Duration) { once.Do(func() { close(started) }) })
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	running := Options{Window: 3_100, PLLScale: 0.1, Seed: 42, Exec: p, Ctx: ctx}
	runErr := make(chan error, 1)
	go func() {
		_, err := RunSuite(running)
		runErr <- err
	}()
	<-started

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	same := running
	same.Exec, same.Ctx = nil, cancelled
	for name, o := range map[string]Options{
		"other options": {Window: 3_200, PLLScale: 0.1, Seed: 42, Ctx: cancelled},
		"same options":  same,
	} {
		got := make(chan error, 1)
		go func() {
			_, err := RunSuite(o)
			got <- err
		}()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: RunSuite = %v, want context.Canceled", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: a cancelled RunSuite waited on another suite's computation", name)
		}
	}

	stop()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite computation = %v, want context.Canceled", err)
	}
	if cachedSuite(running) != nil {
		t.Fatal("a cancelled suite computation was memoized")
	}
}

// TestSuiteMemoization verifies the evaluation pipeline is memoized per
// normalized Options: after figure6 runs the sweep once, table9 and
// figure7 with identical Options are served from the memo without
// re-running the synchronous sweep or the Program-Adaptive searches. The
// first run is traced: it records the pipeline's spans, and neither
// untraced nor differently traced requests split the memo entry.
func TestSuiteMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	o := Options{Window: 1_500, PLLScale: 0.1, Seed: 42}
	before := SuiteComputations()
	traced := o
	traced.Tracer = metrics.NewTracer("suite")
	f6, err := Run("figure6", traced)
	if err != nil {
		t.Fatal(err)
	}
	if dump := traced.Tracer.Finish(); len(dump.Spans) == 0 {
		t.Error("traced suite computation recorded no spans")
	}
	after6 := SuiteComputations()
	if after6 != before+1 {
		t.Fatalf("figure6 ran the pipeline %d times, want 1", after6-before)
	}
	t9, err := Run("table9", o)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Run("figure7", o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSuite(o); err != nil {
		t.Fatal(err)
	}
	// Workers-only, zero-field and retraced variants hit the same entry.
	alt := o
	alt.Workers = 2
	if _, err := RunSuite(alt); err != nil {
		t.Fatal(err)
	}
	alt.Tracer = metrics.NewTracer("suite")
	if _, err := RunSuite(alt); err != nil {
		t.Fatal(err)
	}
	if got := SuiteComputations(); got != after6 {
		t.Fatalf("table9/figure7/RunSuite re-ran the pipeline (%d extra computations)", got-after6)
	}
	if len(f6.Rows) != 40 || len(t9.Rows) != 4 || len(f7.Rows) == 0 {
		t.Errorf("memoized tables malformed: %d/%d/%d rows", len(f6.Rows), len(t9.Rows), len(f7.Rows))
	}
}

// TestMemoKeyNormalization: zero-valued fields resolve to the defaults, and
// parallelism never splits the memo.
func TestMemoKeyNormalization(t *testing.T) {
	def := DefaultOptions()
	zero := Options{}
	if zero.memoKey() != def.memoKey() {
		t.Errorf("zero Options normalize to %+v, want %+v", zero.memoKey(), def.memoKey())
	}
	w := def
	w.Workers = 7
	if w.memoKey() != def.memoKey() {
		t.Error("Workers should not affect the memo key")
	}
	j := def
	j.JitterFrac = 0.01
	if j.memoKey() == def.memoKey() {
		t.Error("JitterFrac must affect the memo key")
	}
}

// TestSuiteKeyEnvNeutral: Env and Tracer never reach the suite's persistent
// key, which stays byte-equal to the key earlier releases wrote, so existing
// caches keep hitting. (The process-local memo adds Env.Cache beside it.)
func TestSuiteKeyEnvNeutral(t *testing.T) {
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := recstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bare := Options{Window: 2_000, PLLScale: 0.1, Seed: 42}
	dressed := bare
	dressed.Env = sweep.Env{Cache: c, Recordings: recs}
	dressed.Tracer = metrics.NewTracer("suite")
	if bare.memoKey() != dressed.memoKey() {
		t.Error("Env or Tracer split the suite key")
	}
	const want = "suite/6d07d5b8992c752e4a80010b4e6e7ed0d940a5eb998f5814eb09545be4fab1b0"
	for _, o := range []Options{bare, dressed} {
		if got := resultcache.Key("suite", o.memoKey()); got != want {
			t.Errorf("suite key %s, want %s", got, want)
		}
	}
}

// mapStore is a map-backed resultcache.Store. Its dynamic type is not
// comparable, so it cannot be part of the suite memo's key.
type mapStore struct {
	mu *sync.Mutex
	m  map[string][]byte
}

func (s mapStore) Load(key string, v any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return ok && json.Unmarshal(b, v) == nil
}

func (s mapStore) Store(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = b
}

// TestSuiteMapStore: a suite persisting to a store whose type cannot key
// the process-local memo runs without the memo: it computes once, persists
// to that store, and a repeat loads from it.
func TestSuiteMapStore(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	store := mapStore{mu: new(sync.Mutex), m: map[string][]byte{}}
	o := Options{Window: 1_100, PLLScale: 0.1, Seed: 42, Env: sweep.Env{Cache: store}}
	before := SuiteComputations()
	r, err := RunSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.m[resultcache.Key("suite", o.memoKey())]; !ok {
		t.Fatal("the suite did not persist to its store")
	}
	if cachedSuite(o) != nil {
		t.Error("a suite over an uncomparable store was memoized")
	}
	again, err := RunSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := SuiteComputations() - before; got != 1 {
		t.Errorf("two runs over one store computed the suite %d times, want 1", got)
	}
	if again.MeanPhase != r.MeanPhase || again.MeanProg != r.MeanProg {
		t.Error("the suite loaded from the store differs from the computed one")
	}
}

// TestSuitePipelineSmall runs the full Figure-6 pipeline at a tiny window:
// it validates plumbing (and Table 9 derivation), not calibration.
func TestSuitePipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	o := Options{Window: 2_000, PLLScale: 0.1, Seed: 42}
	r, err := RunSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Specs) != 40 || len(r.ProgTimes) != 40 || len(r.PhaseResults) != 40 {
		t.Fatalf("pipeline shapes wrong: %d/%d/%d", len(r.Specs), len(r.ProgTimes), len(r.PhaseResults))
	}
	for i := range r.Specs {
		if r.SyncTimes[i] <= 0 || r.ProgTimes[i] <= 0 {
			t.Fatalf("%s: non-positive times", r.Specs[i].Name)
		}
		// Program-Adaptive picked the per-app best: it can never lose to
		// the base adaptive configuration by definition of the search.
		if r.ProgConfigs[i].Mode.String() != "program-adaptive" {
			t.Fatalf("%s: wrong mode in program config", r.Specs[i].Name)
		}
	}

	// The cached pipeline feeds both figure6 and table9.
	f6, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 40 {
		t.Errorf("figure6 has %d rows, want 40", len(f6.Rows))
	}
	t9, err := Table9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t9.Rows) != 4 {
		t.Errorf("table9 has %d rows, want 4", len(t9.Rows))
	}
	// Distribution rows sum to ~100%.
	for _, row := range t9.Rows {
		sum := 0
		for _, cell := range row[1:] {
			var v int
			if _, err := fmtSscanf(cell, &v); err != nil {
				t.Fatalf("bad percentage cell %q", cell)
			}
			sum += v
		}
		if sum < 98 || sum > 102 {
			t.Errorf("%s: distribution sums to %d%%", row[0], sum)
		}
	}
}

// fmtSscanf parses "NN%" cells.
func fmtSscanf(cell string, v *int) (int, error) {
	cell = strings.TrimSuffix(cell, "%")
	n, err := parseInt(cell)
	*v = n
	return n, err
}

func parseInt(s string) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &parseErr{s}
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "bad int " + e.s }
