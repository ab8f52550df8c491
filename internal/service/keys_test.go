package service

import (
	"context"
	"testing"

	"gals/internal/sweep"
)

// TestServiceKeysPinned: the request keys galsd hashes are byte-equal to
// the ones earlier releases wrote, so existing caches keep hitting. Each
// request sets its result-neutral fields, which must not reach the key,
// and carries a policy artifact, which reaches it only as a digest.
func TestServiceKeysPinned(t *testing.T) {
	run := RunRequest{
		Bench: "gcc", Mode: "phase", ICache: "16k1W", DCache: 1, IntIQ: 32, FPIQ: 16,
		Window: 4_000, Seed: 7, JitterFrac: 0.01, PLLScale: 0.2,
		Policy: "learned", PolicyParams: "", PolicyBlob: `{"weights":[1,2,3]}`,
		Telemetry: true, Priority: 5, TimeoutMS: 900,
	}
	sw := SweepRequest{
		Space: "phase", Bench: "gcc",
		Policies: []sweep.PolicySetting{
			{Name: "paper"},
			{Name: "interval", Params: "interval=7500"},
			{Name: "learned", Blob: `{"weights":[4,5,6]}`},
		},
		Window: 3_000, Workers: 3, Seed: 42, PLLScale: 0.1, Priority: 2, TimeoutMS: 500,
	}
	suite := SuiteRequest{
		Window: 2_000, Workers: 4, FullSyncSpace: true, PLLScale: 0.3, Seed: 9,
		JitterFrac: 0.02, Policy: "learned", PolicyBlob: `{"weights":[7]}`,
		Priority: 1, TimeoutMS: 300,
	}
	for _, c := range []struct{ got, want string }{
		{run.cacheKey(), "run/b66a96508c180f82c7053dae4f06eb98708d1602b7372a8ed9c4bdca0d0aa703"},
		{run.telemetryKey(), "telemetry/748123b8751a6f657a69cc5571acf27065951e5751e2bfbd2f9fb0411bd36e79"},
		{sw.cacheKey(), "sweepreq/ac8196636dd1137e0f7927f792368f0b1c3797954c3ebbb1d593ada042dad8a7"},
		{suite.cacheKey(), "suitereq/e6ad08ff6e587b1dcc1434bfd8863f82f0d0fff49d0a0528d8a9eb58eda1a960"},
	} {
		if c.got != c.want {
			t.Errorf("key %s, want %s", c.got, c.want)
		}
	}
}

// TestRunICacheSpellingsShareKey: an adaptive I-cache name is matched
// case-insensitively, so its spellings name one machine and must share one
// cache key (otherwise each spelling is simulated and stored again).
func TestRunICacheSpellingsShareKey(t *testing.T) {
	for _, mode := range []string{"program", "phase"} {
		var keys []string
		for _, name := range []string{"16k1W", "16K1w", "16K1W"} {
			n, err := RunRequest{Bench: "em3d", Mode: mode, ICache: name, Window: 1_500}.normalize()
			if err != nil {
				t.Fatalf("%s %q: %v", mode, name, err)
			}
			keys = append(keys, n.cacheKey())
		}
		if keys[0] != keys[1] || keys[0] != keys[2] {
			t.Errorf("%s: spellings of one I-cache got distinct keys %v", mode, keys)
		}
	}
}

// TestRunPaperPolicySharesKey: an empty policy selects the paper
// controllers, so naming them must share the default's cache key and its
// one simulation.
func TestRunPaperPolicySharesKey(t *testing.T) {
	plain := RunRequest{Bench: "em3d", Window: 1_500}
	named := plain
	named.Policy = "paper"
	np, err := plain.normalize()
	if err != nil {
		t.Fatal(err)
	}
	nn, err := named.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if np.cacheKey() != nn.cacheKey() {
		t.Fatalf("policy \"paper\" keyed %s, default %s", nn.cacheKey(), np.cacheKey())
	}
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 1})
	first, err := s.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(context.Background(), named)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.TimeFS != first.TimeFS {
		t.Errorf("policy \"paper\" run %+v, want the default's cached result", second)
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Errorf("%d simulations, want 1", got)
	}
}

// TestSweepQuickSharesKeyOffSyncSpace: Quick prunes only the sync space, so
// on the other spaces it names the same sweep and must not split its key.
func TestSweepQuickSharesKeyOffSyncSpace(t *testing.T) {
	key := func(r SweepRequest) string {
		n, err := r.normalize()
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return n.cacheKey()
	}
	for _, space := range []string{"adaptive", "phase"} {
		plain := key(SweepRequest{Space: space, Bench: "gcc", Window: 2_000})
		quick := key(SweepRequest{Space: space, Bench: "gcc", Window: 2_000, Quick: true})
		if plain != quick {
			t.Errorf("%s: quick and plain sweeps got distinct keys %s and %s", space, quick, plain)
		}
	}
	if key(SweepRequest{Space: "sync", Quick: true}) == key(SweepRequest{Space: "sync"}) {
		t.Error("sync: quick and full sweeps share a key")
	}
}

// TestSuitePaperPolicySharesKey: a suite request naming the paper policy
// shares the default's key, as a run request does, so the suite and every
// experiment over it are computed and stored once.
func TestSuitePaperPolicySharesKey(t *testing.T) {
	plain := SuiteRequest{Window: 2_000}
	named := plain
	named.Policy = "paper"
	np, err := plain.normalize()
	if err != nil {
		t.Fatal(err)
	}
	nn, err := named.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if np.cacheKey() != nn.cacheKey() {
		t.Fatalf("policy \"paper\" keyed %s, default %s", nn.cacheKey(), np.cacheKey())
	}
	// With params, "paper" is not the default selection.
	named.PolicyParams = "hysteresis=1"
	if _, err := named.normalize(); err == nil {
		t.Fatal("the paper policy accepted a parameter it does not declare")
	}
}
