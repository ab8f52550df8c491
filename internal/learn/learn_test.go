package learn

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/workload"
)

// trainOnce caches one small trained model per test binary — training is
// deterministic, so every test can share it.
var trainOnce = func() func(t *testing.T) (*Model, string) {
	var m *Model
	var blob string
	return func(t *testing.T) (*Model, string) {
		t.Helper()
		if m == nil {
			var err error
			m, _, err = Train(sweep.Env{}, TrainOptions{Window: 20_000})
			if err != nil {
				t.Fatal(err)
			}
			blob, err = m.Encode()
			if err != nil {
				t.Fatal(err)
			}
		}
		return m, blob
	}
}()

func TestLearnedPolicyRegistered(t *testing.T) {
	p, ok := control.Lookup("learned")
	if !ok {
		t.Fatal("learned policy not registered")
	}
	if !p.Info().RequiresBlob {
		t.Error("learned policy does not declare RequiresBlob")
	}
	if err := control.ValidateSelection("learned", "", ""); err == nil ||
		!strings.Contains(err.Error(), "requires a blob") {
		t.Errorf("learned accepted an empty artifact: %v", err)
	}
}

func TestModelEncodeRoundTrip(t *testing.T) {
	m, blob := trainOnce(t)
	parsed, err := ParseModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, m) {
		t.Fatal("decode(encode(model)) != model")
	}
	again, err := parsed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if again != blob {
		t.Fatal("encode(decode(blob)) != blob — the artifact is not canonical")
	}
}

func TestParseModelRejectsMalformedBlobs(t *testing.T) {
	_, good := trainOnce(t)
	for name, blob := range map[string]string{
		"empty":          "",
		"not json":       "weights",
		"wrong version":  strings.Replace(good, `"version":1`, `"version":99`, 1),
		"wrong features": strings.Replace(good, `"features":8`, `"features":3`, 1),
		"unknown field":  strings.Replace(good, `"version"`, `"extra":1,"version"`, 1),
		"short head":     `{"version":1,"features":8,"icache":[1],"dcache":[],"int_iq":[],"fp_iq":[]}`,
	} {
		if _, err := ParseModel(blob); err == nil {
			t.Errorf("%s: ParseModel accepted %q", name, blob)
		}
		if err := control.ValidateSelection("learned", "", blob); err == nil {
			t.Errorf("%s: registry validation accepted the artifact", name)
		}
	}
}

// TestTrainingDeterministic: the pipeline has no randomness — identical
// options must fit bit-identical artifacts.
func TestTrainingDeterministic(t *testing.T) {
	_, blob := trainOnce(t)
	m2, _, err := Train(sweep.Env{}, TrainOptions{Window: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if blob2 != blob {
		t.Fatal("two trainings with identical options produced different artifacts")
	}
}

// TestLearnedPolicyDeterminism is the CI determinism gate (run under
// -race): given one persisted weights artifact and one seed, repeated
// learned-policy runs produce bit-identical reconfiguration traces and run
// times.
func TestLearnedPolicyDeterminism(t *testing.T) {
	_, blob := trainOnce(t)
	spec, _ := workload.ByName("mesa")
	run := func() *core.Result {
		cfg := core.DefaultAdaptive(core.PhaseAdaptive)
		cfg.PLLScale = 0.1
		cfg.RecordTrace = true
		cfg.Policy, cfg.PolicyBlob = "learned", blob
		return core.RunWorkload(spec, cfg, 50_000)
	}
	a, b := run(), run()
	if a.TimeFS != b.TimeFS {
		t.Fatalf("run times diverge: %d vs %d", a.TimeFS, b.TimeFS)
	}
	if !reflect.DeepEqual(a.Stats.ReconfigEvents, b.Stats.ReconfigEvents) {
		t.Fatal("reconfiguration traces diverge between identical learned runs")
	}
	if len(a.Stats.ReconfigEvents) == 0 {
		t.Error("learned policy never reconfigured on mesa (degenerate model?)")
	}
}

// TestArtifactSidecar: the trained weights persist as a result-cache
// sidecar — a second process (modelled by a second Open of the same
// directory) loads them instead of retraining, byte-identically.
func TestArtifactSidecar(t *testing.T) {
	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := TrainOptions{Window: 6_000}
	blob, err := Artifact(sweep.Env{Cache: store}, o)
	if err != nil {
		t.Fatal(err)
	}
	// Trained once: the sidecar missed, then was written.
	if st := store.Stats(); st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("first Artifact: %d misses and %d writes, want 1 and 1", st.Misses, st.Puts)
	}
	if _, err := ParseModel(blob); err != nil {
		t.Fatalf("artifact does not validate: %v", err)
	}

	second, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Artifact(sweep.Env{Cache: second}, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Hits != 1 || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("second Artifact: %d hits, %d misses, %d writes, want the sidecar loaded and nothing retrained", st.Hits, st.Misses, st.Puts)
	}
	if again != blob {
		t.Fatal("sidecar round trip changed the artifact bytes")
	}

	// Distinct training options are distinct artifacts.
	if k1, k2 := ArtifactKey(o), ArtifactKey(TrainOptions{Window: 7_000}); k1 == k2 {
		t.Fatal("distinct training options share an artifact key")
	}

	// A store over another directory gets its own sidecar: the memo is
	// per store, so an artifact trained for one directory is not served
	// to a caller persisting elsewhere.
	other, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if b, err := Artifact(sweep.Env{Cache: other}, o); err != nil || b != blob {
		t.Fatalf("artifact over a second directory: err %v, same bytes %v", err, b == blob)
	}
	if !other.Has(ArtifactKey(o)) {
		t.Fatal("the second directory holds no sidecar")
	}
}

// mapStore is a map-backed resultcache.Store. Its dynamic type is not
// comparable, so it cannot be part of the artifact memo's key.
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

// TestArtifactMapStore: an artifact persisting to a store whose type cannot
// key the process-local memo is trained without the memo and written to
// that store as its sidecar.
func TestArtifactMapStore(t *testing.T) {
	store := mapStore{mu: new(sync.Mutex), m: map[string][]byte{}}
	o := TrainOptions{Window: 6_000}
	blob, err := Artifact(sweep.Env{Cache: store}, o)
	if err != nil {
		t.Fatal(err)
	}
	var m Model
	if !store.Load(ArtifactKey(o), &m) {
		t.Fatal("the map store holds no sidecar for the artifact")
	}
	if sidecar, err := m.Encode(); err != nil || sidecar != blob {
		t.Fatalf("sidecar: err %v, same bytes as the artifact %v", err, sidecar == blob)
	}
	if again, err := Artifact(sweep.Env{Cache: store}, o); err != nil || again != blob {
		t.Fatalf("artifact from the map store: err %v, same bytes %v", err, again == blob)
	}
}

// TestBlobDigestKeysCache: two learned runs differing only in their weights
// artifact must never share a sweep-layer cache entry, and an identical
// artifact must be served from the persisted entry without re-simulating.
func TestBlobDigestKeysCache(t *testing.T) {
	_, blob := trainOnce(t)
	// A second, distinct-but-valid artifact: perturb one weight.
	m2, err := ParseModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	m2.ICache[0] += 1
	blob2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if control.BlobDigest(blob) == control.BlobDigest(blob2) {
		t.Fatal("distinct artifacts share a digest")
	}

	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.Policy, cfg.PolicyBlob = "learned", blob
	cfg2 := cfg
	cfg2.PolicyBlob = blob2
	if cfg.Label() == cfg2.Label() {
		t.Error("distinct artifacts share a configuration label")
	}

	// Through the persistent sweep layer: artifact A computes, artifact B
	// computes again (no aliasing), artifact A repeats from the cache.
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.ByName("mesa")
	specs := []workload.Spec{spec}
	opts := func(b string) sweep.Options {
		return sweep.Options{Window: 10_000, Policy: "learned", PolicyBlob: b, Env: sweep.Env{Cache: store}}
	}

	before := sweep.MeasureComputations()
	ra, err := sweep.MeasurePhase(specs, opts(blob))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sweep.MeasurePhase(specs, opts(blob2))
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.MeasureComputations() - before; got != 2 {
		t.Fatalf("distinct artifacts shared a cache entry (%d computations, want 2)", got)
	}
	ra2, err := sweep.MeasurePhase(specs, opts(blob))
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.MeasureComputations() - before; got != 2 {
		t.Fatalf("identical artifact missed the cache (%d computations, want 2)", got)
	}
	if ra2[0].TimeFS != ra[0].TimeFS {
		t.Fatal("cached learned result differs from the computed one")
	}
	_ = rb
}
