package control

import (
	"reflect"
	"strings"
	"testing"

	"gals/internal/queue"
	"gals/internal/timing"
)

func TestRegistryBuiltins(t *testing.T) {
	want := []string{"paper", "interval", "frozen", "feedback"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		if p.Info().Name != name {
			t.Errorf("policy %q reports name %q", name, p.Info().Name)
		}
	}
	if p, ok := Lookup(""); !ok || p.Info().Name != DefaultPolicy {
		t.Error("empty name did not resolve to the default policy")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown policy resolved")
	}
	infos := Infos()
	if len(infos) != len(want) {
		t.Fatalf("Infos() has %d entries, want %d", len(infos), len(want))
	}
	for _, in := range infos {
		if in.Description == "" {
			t.Errorf("policy %q has no description", in.Name)
		}
	}
}

func TestParseParams(t *testing.T) {
	got, err := ParseParams(" interval=7500, hysteresis = 1 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"interval": 7500, "hysteresis": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseParams = %v, want %v", got, want)
	}
	if m, err := ParseParams(""); err != nil || len(m) != 0 {
		t.Errorf("empty params: %v, %v", m, err)
	}
	for _, bad := range []string{"=1", "x", "k=v", "a=1,a=2"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted", bad)
		}
	}
}

func TestValidateResolvesDefaults(t *testing.T) {
	// resolve hands a policy only the explicit values; an omitted one falls
	// back to its declared default through Param.
	p, got, err := resolveParams("interval", "hysteresis=3")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"hysteresis": 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit params = %v, want %v", got, want)
	}
	def := map[string]float64{}
	for _, pi := range p.Info().Params {
		def[pi.Name] = pi.Default
	}
	if v := Param(got, "interval", def["interval"]); v != PaperCacheInterval {
		t.Fatalf("interval default = %v, want %v", v, PaperCacheInterval)
	}
	if err := Validate("interval", "interval=-5"); err == nil {
		t.Error("negative interval validated")
	}
	if err := Validate("paper", "interval=1"); err == nil {
		t.Error("paper accepted a parameter it does not declare")
	}
	if err := Validate("frozen", ""); err != nil {
		t.Errorf("frozen rejected: %v", err)
	}
	if err := Validate("", ""); err != nil {
		t.Errorf("default policy rejected: %v", err)
	}
	if err := Validate("nope", ""); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
}

func TestFrozenControllerDecidesNothing(t *testing.T) {
	c, err := New("frozen", "", Init{IntIQ: timing.IQ16, FPIQ: timing.IQ16})
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheInterval() != 0 || c.NeedsIQ() {
		t.Error("frozen controller wants decision intervals")
	}
	var buf [4]Reconfig
	if out := c.DecideCaches(CacheObs{}, buf[:0]); len(out) != 0 {
		t.Errorf("frozen decided caches: %v", out)
	}
	if out := c.DecideIQs(IQObs{}, buf[:0]); len(out) != 0 {
		t.Errorf("frozen decided queues: %v", out)
	}
}

func TestIntervalControllerCadence(t *testing.T) {
	c, err := New("interval", "interval=7500", Init{IntIQ: timing.IQ16, FPIQ: timing.IQ16})
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheInterval() != 7500 {
		t.Errorf("interval = %d, want 7500", c.CacheInterval())
	}
	if !c.NeedsIQ() {
		t.Error("default hysteresis should keep queue adaptation on")
	}
	// hysteresis=0 freezes the queues but keeps the cache cadence.
	c0, err := New("interval", "interval=7500,hysteresis=0", Init{})
	if err != nil {
		t.Fatal(err)
	}
	if c0.NeedsIQ() {
		t.Error("hysteresis=0 should disable queue adaptation")
	}
	if c0.CacheInterval() != 7500 {
		t.Error("hysteresis=0 must not change the cache cadence")
	}
	if out := c0.DecideIQs(IQObs{}, nil); len(out) != 0 {
		t.Errorf("frozen queues decided: %v", out)
	}
}

// TestPaperIQDecisionSkipsPendingQueue pins the pre-refactor subtlety that a
// queue with a resize in flight does not feed its hysteresis tracker.
func TestPaperIQDecisionSkipsPendingQueue(t *testing.T) {
	// A samples vector whose Choose outcome is a 64-entry integer queue:
	// high ILP at every window size.
	var samples [4]queue.Sample
	for i, n := range []int{16, 32, 48, 64} {
		samples[i] = queue.Sample{N: n, M: 2, IntCount: n, FPCount: 0}
	}
	mk := func() Controller {
		c, err := New("paper", "", Init{IntIQ: timing.IQ16, FPIQ: timing.IQ16, IQHysteresis: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	free := mk()
	got := free.DecideIQs(IQObs{Samples: samples}, nil)
	if len(got) != 1 || got[0].Kind != IntIQ || got[0].Target != 64 {
		t.Fatalf("unblocked decision = %v, want one int-iq resize to 64", got)
	}

	blocked := mk()
	if out := blocked.DecideIQs(IQObs{Samples: samples, IntPending: true}, nil); len(out) != 0 {
		t.Fatalf("pending queue still decided: %v", out)
	}
	// The blocked interval must not have advanced the hysteresis streak:
	// the next unblocked interval decides exactly as the first would have.
	got = blocked.DecideIQs(IQObs{Samples: samples}, nil)
	if len(got) != 1 || got[0].Target != 64 {
		t.Fatalf("post-pending decision = %v, want one int-iq resize to 64", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{ICache: "icache", DCache: "dcache", IntIQ: "int-iq", FPIQ: "fp-iq", Kind(9): "?"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
