package sweep

import (
	"encoding/json"
	"reflect"
	"testing"

	"gals/internal/core"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/timing"
	"gals/internal/workload"
)

func TestSpaceSizes(t *testing.T) {
	// Paper Section 4: 1,024 synchronous points (16 x 4 x 4 x 4) and 256
	// adaptive points (4 x 4 x 4 x 4).
	if got := len(SyncSpace()); got != 1024 {
		t.Errorf("sync space has %d configs, want 1024", got)
	}
	if got := len(AdaptiveSpace()); got != 256 {
		t.Errorf("adaptive space has %d configs, want 256", got)
	}
	for _, c := range SyncSpace() {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid sync config: %v", err)
		}
	}
	for _, c := range AdaptiveSpace() {
		if c.Mode != core.ProgramAdaptive {
			t.Fatal("adaptive space config not program-adaptive")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid adaptive config: %v", err)
		}
	}
}

func TestBestOverallAndPerApp(t *testing.T) {
	// Synthetic matrix: config 1 is best overall; config 0 best on app 0.
	times := [][]timing.FS{
		{100, 900, 900},
		{300, 300, 300},
		{500, 400, 800},
	}
	if got := BestOverall(times); got != 1 {
		t.Errorf("BestOverall = %d, want 1", got)
	}
	per := BestPerApp(times)
	want := []int{0, 1, 1}
	for i := range want {
		if per[i] != want[i] {
			t.Errorf("BestPerApp[%d] = %d, want %d", i, per[i], want[i])
		}
	}
	if BestPerApp(nil) != nil {
		t.Error("BestPerApp(nil) != nil")
	}
}

// TestBestOverallZeroTimeGuard: a zero (or negative) run time means "no
// valid measurement" and must never win the geometric-mean comparison —
// math.Log(0) = -Inf would otherwise make the broken config look infinitely
// fast.
func TestBestOverallZeroTimeGuard(t *testing.T) {
	times := [][]timing.FS{
		{100, 0, 900}, // one failed run: whole config disqualified
		{300, 300, 300},
		{500, -7, 800}, // negative time likewise
	}
	if got := BestOverall(times); got != 1 {
		t.Errorf("BestOverall with zero/negative times = %d, want 1", got)
	}
	// Empty input and all-invalid input return -1, not a bogus winner.
	if got := BestOverall(nil); got != -1 {
		t.Errorf("BestOverall(nil) = %d, want -1", got)
	}
	if got := BestOverall([][]timing.FS{}); got != -1 {
		t.Errorf("BestOverall(empty) = %d, want -1", got)
	}
	if got := BestOverall([][]timing.FS{{0}, {0, 0}}); got != -1 {
		t.Errorf("BestOverall(all-invalid) = %d, want -1", got)
	}
	// Sanity: a single valid config wins.
	if got := BestOverall([][]timing.FS{{5}}); got != 0 {
		t.Errorf("BestOverall(single) = %d, want 0", got)
	}
}

// directTimes is the sweep's test oracle: the full [config][benchmark]
// times matrix from one direct core.RunSource run per cell on a live trace.
func directTimes(specs []workload.Spec, cfgs []core.Config, o Options) [][]timing.FS {
	o = o.WithDefaults()
	times := make([][]timing.FS, len(cfgs))
	for ci, cfg := range cfgs {
		times[ci] = make([]timing.FS, len(specs))
		for si, spec := range specs {
			times[ci][si] = core.RunSource(spec.NewTrace(), o.apply(cfg), o.Window).TimeFS
		}
	}
	return times
}

// mustSummary is MeasureSummary for tests that expect no error.
func mustSummary(t *testing.T, specs []workload.Spec, cfgs []core.Config, o Options) *Summary {
	t.Helper()
	sum, err := MeasureSummary(specs, cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// mustPhase is MeasurePhase for tests that expect no error.
func mustPhase(t *testing.T, specs []workload.Spec, o Options) []*core.Result {
	t.Helper()
	res, err := MeasurePhase(specs, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMeasureSharedPool threads one recorded-trace pool through two sweeps
// and checks results match pool-less sweeps exactly.
func TestMeasureSharedPool(t *testing.T) {
	specs := workload.Suite()[:3]
	cfgs := AdaptiveSpace()[:3]
	pool := workload.NewPool(3000)
	withPool := Options{Window: 3000, Traces: pool}
	noPool := Options{Window: 3000}
	a := mustSummary(t, specs, cfgs, withPool)
	b := mustSummary(t, specs, cfgs, noPool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pooled sweep diverges from the pool-less one")
	}
	if pool.Size() != len(specs) {
		t.Errorf("pool recorded %d benchmarks, want %d", pool.Size(), len(specs))
	}
	// MeasurePhase shares the same pool and matches its pool-less twin.
	pa := mustPhase(t, specs, withPool)
	pb := mustPhase(t, specs, noPool)
	for i := range pa {
		if pa[i].TimeFS != pb[i].TimeFS {
			t.Fatalf("pooled MeasurePhase diverges at %d", i)
		}
	}
	// An undersized pool must not be used (replays would overrun); the
	// sweep falls back to a private pool of the right window.
	small := workload.NewPool(10)
	c := mustSummary(t, specs, cfgs, Options{Window: 3000, Traces: small})
	if !reflect.DeepEqual(c, b) {
		t.Fatal("undersized-pool sweep diverges")
	}
	if small.Size() != 0 {
		t.Errorf("undersized pool was populated (%d entries)", small.Size())
	}
}

// TestPhaseResultsRecordEvents: MeasurePhase always records
// reconfiguration events so Figure 7 can reuse suite runs.
func TestPhaseResultsRecordEvents(t *testing.T) {
	spec, _ := workload.ByName("apsi")
	res := mustPhase(t, []workload.Spec{spec}, Options{Window: 40_000})
	if len(res[0].Stats.ReconfigEvents) == 0 {
		t.Error("MeasurePhase recorded no reconfiguration events on apsi")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(200, 100); got != 100 {
		t.Errorf("Improvement(200,100) = %v, want +100%%", got)
	}
	if got := Improvement(100, 200); got != -50 {
		t.Errorf("Improvement(100,200) = %v, want -50%%", got)
	}
	if got := Improvement(100, 0); got != 0 {
		t.Errorf("Improvement by zero = %v, want 0", got)
	}
}

func TestMeasureMatchesDirectRuns(t *testing.T) {
	specs := workload.Suite()[:2]
	cfgs := []core.Config{core.DefaultSync(), core.DefaultAdaptive(core.ProgramAdaptive)}
	o := Options{Window: 5000, Workers: 4}
	sum := mustSummary(t, specs, cfgs, o)
	if want := Summarize(directTimes(specs, cfgs, o)); !reflect.DeepEqual(sum, want) {
		t.Errorf("MeasureSummary = %+v, direct runs fold to %+v", sum, want)
	}
}

func TestMeasureDeterministicAcrossRuns(t *testing.T) {
	specs := workload.Suite()[:3]
	cfgs := AdaptiveSpace()[:4]
	o := Options{Window: 3000}
	if a, b := mustSummary(t, specs, cfgs, o), mustSummary(t, specs, cfgs, o); !reflect.DeepEqual(a, b) {
		t.Fatal("parallel sweep nondeterministic")
	}
}

// TestMeasureSummaryBitIdenticalToMatrix is the tentpole acceptance check
// at test scale: the streaming summary's winners and per-config best times
// must be bit-identical to the full matrix of direct runs, folded both by
// Summarize and by the BestOverall/BestPerApp reference.
func TestMeasureSummaryBitIdenticalToMatrix(t *testing.T) {
	specs := workload.Suite()[:5]
	cfgs := AdaptiveSpace()[:24]
	o := Options{Window: 2500}
	times := directTimes(specs, cfgs, o)
	ref := Summarize(times)
	sum, err := MeasureSummary(specs, cfgs, o)
	if err != nil {
		t.Fatal(err)
	}

	if sum.Best != ref.Best || sum.Best != BestOverall(times) {
		t.Fatalf("Best = %d, matrix fold %d, BestOverall %d", sum.Best, ref.Best, BestOverall(times))
	}
	for si := range specs {
		if sum.BestTimes[si] != times[sum.Best][si] {
			t.Fatalf("BestTimes[%d] = %d, matrix %d", si, sum.BestTimes[si], times[sum.Best][si])
		}
	}
	per := BestPerApp(times)
	for si := range specs {
		if sum.PerApp[si] != per[si] {
			t.Fatalf("PerApp[%d] = %d, BestPerApp %d", si, sum.PerApp[si], per[si])
		}
		if sum.PerAppTimes[si] != times[per[si]][si] {
			t.Fatalf("PerAppTimes[%d] = %d, matrix %d", si, sum.PerAppTimes[si], times[per[si]][si])
		}
	}
	for ci := range cfgs {
		if sum.Scores[ci] != ref.Scores[ci] || sum.Invalid[ci] != ref.Invalid[ci] {
			t.Fatalf("Scores[%d] = %v/%v, matrix fold %v/%v",
				ci, sum.Scores[ci], sum.Invalid[ci], ref.Scores[ci], ref.Invalid[ci])
		}
	}
	// And the summary is itself deterministic across runs.
	again, err := MeasureSummary(specs, cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, again) {
		t.Fatal("MeasureSummary nondeterministic across runs")
	}
}

// TestSummarizeTieBreaksAndInvalids pins Summarize (and therefore the
// streaming fold) to BestOverall/BestPerApp semantics on crafted ties and
// disqualified rows.
func TestSummarizeTieBreaksAndInvalids(t *testing.T) {
	times := [][]timing.FS{
		{100, 0, 900}, // failed run: disqualified overall, still wins app 0
		{300, 300, 300},
		{300, 300, 300}, // exact tie with config 1: lowest index must win
		{500, 400, 800},
	}
	sum := Summarize(times)
	if sum.Best != BestOverall(times) || sum.Best != 1 {
		t.Fatalf("Best = %d, want 1", sum.Best)
	}
	if !sum.Invalid[0] || sum.Invalid[1] {
		t.Fatalf("Invalid flags wrong: %v", sum.Invalid)
	}
	per := BestPerApp(times)
	for si := range per {
		if sum.PerApp[si] != per[si] {
			t.Fatalf("PerApp[%d] = %d, BestPerApp %d", si, sum.PerApp[si], per[si])
		}
	}
	// Degenerate shapes.
	if s := Summarize(nil); s.Best != -1 {
		t.Fatalf("Summarize(nil).Best = %d, want -1", s.Best)
	}
	if s := Summarize([][]timing.FS{{0}, {-3}}); s.Best != -1 {
		t.Fatalf("all-invalid Best = %d, want -1", s.Best)
	}
}

// TestMeasureSummaryPersistIgnoresLegacyMatrix: a persisted summary is
// served without simulating, and a store holding only a full matrix from
// the retired matrix path (kind "measure") recomputes once, then serves
// the summary warm.
func TestMeasureSummaryPersistIgnoresLegacyMatrix(t *testing.T) {
	specs := workload.Suite()[:2]
	cfgs := AdaptiveSpace()[:6]

	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Window: 1500, Env: Env{Cache: c}}
	before := MeasureComputations()
	sum := mustSummary(t, specs, cfgs, o)
	if MeasureComputations() != before+1 {
		t.Fatal("cold summary did not compute")
	}
	warm := mustSummary(t, specs, cfgs, o)
	if MeasureComputations() != before+1 {
		t.Fatal("warm summary recomputed instead of loading")
	}
	if !reflect.DeepEqual(sum, warm) {
		t.Fatal("persisted summary differs from computed one")
	}

	c2, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Env.Cache = c2
	c2.Store(o.WithDefaults().measureKey("measure", specs, cfgs), directTimes(specs, cfgs, o))
	mid := MeasureComputations()
	fresh := mustSummary(t, specs, cfgs, o)
	again := mustSummary(t, specs, cfgs, o)
	if got := MeasureComputations() - mid; got != 1 {
		t.Fatalf("legacy-matrix store: %d computations, want 1", got)
	}
	if !reflect.DeepEqual(fresh, sum) || !reflect.DeepEqual(again, sum) {
		t.Fatal("recomputed summary differs")
	}
}

// badShapes damage a 2-benchmark, 3-configuration summary whose Best is
// set, in ways that still decode: each names a configuration outside the
// sweep or leaves a slice that does not fit the dimensions, so a caller
// indexing with it would panic or misread. Each must be a miss.
var badShapes = map[string]func(s *Summary){
	"best past the configs":    func(s *Summary) { s.Best = 99 },
	"best below -1":            func(s *Summary) { s.Best = -2 },
	"per-app past the configs": func(s *Summary) { s.PerApp[0] = 7 },
	"per-app below -1":         func(s *Summary) { s.PerApp[1] = -5 },
	"per-app unset":            func(s *Summary) { s.PerApp[0] = -1 },
	"per-app times length":     func(s *Summary) { s.PerAppTimes = s.PerAppTimes[:1] },
	"invalid length":           func(s *Summary) { s.Invalid = s.Invalid[:2] },
	"scores length":            func(s *Summary) { s.Scores = append(s.Scores, 0) },
	"best times length":        func(s *Summary) { s.BestTimes = s.BestTimes[:1] },
}

// TestMeasureSummaryRejectsBadLoadedShape: a persisted summary that
// decodes but fails the shape check is recomputed, not served.
func TestMeasureSummaryRejectsBadLoadedShape(t *testing.T) {
	specs := workload.Suite()[:2]
	cfgs := AdaptiveSpace()[:3]
	want := mustSummary(t, specs, cfgs, Options{Window: 1500})
	if want.Best < 0 {
		t.Fatal("reference sweep has no best configuration")
	}
	wantJSON, _ := json.Marshal(want)
	for name, damage := range badShapes {
		t.Run(name, func(t *testing.T) {
			c, err := resultcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o := withCache(Options{Window: 1500}, c)
			var bad Summary
			json.Unmarshal(wantJSON, &bad)
			damage(&bad)
			c.Store(o.WithDefaults().measureKey("sweepsum", specs, cfgs), &bad)
			before := MeasureComputations()
			got := mustSummary(t, specs, cfgs, o)
			if MeasureComputations() != before+1 {
				t.Fatal("a damaged summary was served from the store")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("recomputed summary differs from the reference")
			}
		})
	}
}

// TestMeasurePhaseRejectsNilLoadedResults: a persisted "phase" blob of
// nulls decodes to nil results; it is a miss, not an answer.
func TestMeasurePhaseRejectsNilLoadedResults(t *testing.T) {
	specs := workload.Suite()[:2]
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := withCache(Options{Window: 1500}, c)
	c.Store(o.WithDefaults().measureKey("phase", specs, nil), []*core.Result{nil, nil})
	before := MeasureComputations()
	got := mustPhase(t, specs, o)
	if MeasureComputations() != before+1 {
		t.Fatal("a phase blob of nulls was served from the store")
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
	}
}

// TestMeasureKeyEnvNeutral: Env never reaches a persist key, and the keys
// of every kind are byte-equal to the ones earlier releases wrote, so
// existing caches (checkpoints included) keep hitting.
func TestMeasureKeyEnvNeutral(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	specs := []workload.Spec{gcc}
	cfgs := QuickSyncSpace()[:3]
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := recstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bare := Options{Window: 3_000}.WithDefaults()
	withEnv := bare
	withEnv.Env = Env{Cache: c, Recordings: recs}
	want := map[string]string{
		"sweepsum":  "sweepsum/60b661d38de64341e62876e46595edcfd2b1f27e4c35f038f764a8c5163abf2c",
		"sweepckpt": "sweepckpt/34af32798486cf28d5488cf2991b7a578e0deeb51fd17c353fb58358139ee713",
		"phase":     "phase/809e9d6b7cfd82282e4e98a1c024c5a7754a623d3732b956c7bf1df3e875ba2b",
		"phaseckpt": "phaseckpt/3bef1a3fdde0adff484e84e81ef39a16f1dd054e0a21168f8f0f81553546a891",
	}
	for _, o := range []Options{bare, withEnv} {
		for kind, w := range want {
			kcfgs := cfgs
			if kind == "phase" || kind == "phaseckpt" {
				kcfgs = nil
			}
			if got := o.measureKey(kind, specs, kcfgs); got != w {
				t.Errorf("%s key %s, want %s", kind, got, w)
			}
		}
	}

	// A policy-selecting request fills the key's optional fields.
	pol := Options{Window: 1500, Policy: "interval", PolicyParams: "interval=7500"}.WithDefaults()
	specs, cfgs = workload.Suite()[:2], AdaptiveSpace()[:4]
	for kind, w := range map[string]string{
		"sweepsum":  "sweepsum/fab4f360666211f3691f4674157ec110a2ff0eda5a3b5ec1ad91d6e3a6c6c429",
		"sweepckpt": "sweepckpt/fc42eb50bf2b18614b1d5bea3e64dc8b380e79a04a83467bf08e55ef64567c5c",
	} {
		if got := pol.measureKey(kind, specs, cfgs); got != w {
			t.Errorf("policy %s key %s, want %s", kind, got, w)
		}
	}
	if got, w := pol.measureKey("phase", specs, nil), "phase/75ae396092b845ce373f5cc6a3630403ff1fcb0f98af55fd559d5f06c7e0a8f9"; got != w {
		t.Errorf("policy phase key %s, want %s", got, w)
	}
}

func TestPhaseResultsShape(t *testing.T) {
	specs := workload.Suite()[:3]
	res := mustPhase(t, specs, Options{Window: 3000})
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if r == nil || r.Stats.Instructions != 3000 {
			t.Errorf("result %d malformed", i)
		}
		if r.Config.Mode != core.PhaseAdaptive {
			t.Errorf("result %d mode %v", i, r.Config.Mode)
		}
	}
}
