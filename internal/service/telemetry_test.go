package service

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gals/internal/core"
	"gals/internal/metrics"
)

// sumFamily totals every sample of one metric family across its label sets.
func sumFamily(sc *metrics.Scrape, name string) float64 {
	var total float64
	for _, s := range sc.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// sumLabelled totals the samples of one metric family whose label key has
// the given value.
func sumLabelled(sc *metrics.Scrape, name, key, value string) float64 {
	var total float64
	for _, s := range sc.Samples {
		if s.Name == name && s.Labels[key] == value {
			total += s.Value
		}
	}
	return total
}

// TestTelemetryEndToEnd drives the whole artifact path over real HTTP
// (run under -race in CI): a "telemetry":true run returns a digest, the
// artifact fetched by that digest reconciles its event counts exactly with
// the run's Stats.Reconfigs AND with the scrape deltas of
// gals_reconfig_events_total and of gals_reconfigurations_total under the
// run's policy, and the cached re-issue of the same request round-trips the same
// digest without recomputing.
func TestTelemetryEndToEnd(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := scrape(t, srv.URL)

	body := `{"bench": "gcc", "window": 30000, "telemetry": true}`
	var run RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &run)
	if run.Telemetry == "" {
		t.Fatal("telemetry run returned no artifact digest")
	}
	if run.Cached {
		t.Fatal("first telemetry run claims to be cached")
	}
	if run.Stats.Reconfigs == 0 {
		t.Fatal("phase run committed no reconfigurations; the reconciliation below is vacuous")
	}

	after := scrape(t, srv.URL)

	var tel core.Telemetry
	code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/telemetry/"+run.Telemetry, "", &tel)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/telemetry/%s = %d", run.Telemetry, code)
	}
	if tel.Version != core.TelemetryVersion {
		t.Errorf("artifact version %d, want %d", tel.Version, core.TelemetryVersion)
	}
	if tel.Workload != "gcc" || tel.Window != 30000 {
		t.Errorf("artifact metadata: workload %q window %d", tel.Workload, tel.Window)
	}

	// Three-way reconciliation: artifact events == Stats.Reconfigs ==
	// scrape delta of gals_reconfig_events_total (only this run happened
	// in between, so the process-wide counter moved by exactly this run).
	eventTotal := int64(len(tel.Events)) + tel.DroppedEvents
	if eventTotal != run.Stats.Reconfigs {
		t.Errorf("artifact holds %d events, Stats.Reconfigs = %d", eventTotal, run.Stats.Reconfigs)
	}
	delta := sumFamily(after, "gals_reconfig_events_total") - sumFamily(before, "gals_reconfig_events_total")
	if int64(delta) != run.Stats.Reconfigs {
		t.Errorf("gals_reconfig_events_total moved by %.0f, Stats.Reconfigs = %d", delta, run.Stats.Reconfigs)
	}
	// The per-policy series counts the same events once each, all under
	// the default phase run's policy label.
	delta = sumFamily(after, "gals_reconfigurations_total") - sumFamily(before, "gals_reconfigurations_total")
	if int64(delta) != run.Stats.Reconfigs {
		t.Errorf("gals_reconfigurations_total moved by %.0f, Stats.Reconfigs = %d", delta, run.Stats.Reconfigs)
	}
	delta = sumLabelled(after, "gals_reconfigurations_total", "policy", "paper") - sumLabelled(before, "gals_reconfigurations_total", "policy", "paper")
	if int64(delta) != run.Stats.Reconfigs {
		t.Errorf(`gals_reconfigurations_total{policy="paper"} moved by %.0f, Stats.Reconfigs = %d`, delta, run.Stats.Reconfigs)
	}
	// Per-structure counts in the artifact must cover every committed event.
	var byStructure int64
	for _, n := range tel.EventsByStructure() {
		byStructure += n
	}
	if byStructure+tel.DroppedEvents != run.Stats.Reconfigs {
		t.Errorf("per-structure sum %d + dropped %d != Reconfigs %d", byStructure, tel.DroppedEvents, run.Stats.Reconfigs)
	}

	// Artifact accounting surfaced in /v1/stats and /metrics.
	var st Stats
	doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "", &st)
	if st.TelemetryRuns < 1 || st.TelemetryBytes <= 0 {
		t.Errorf("stats report %d telemetry runs, %d bytes", st.TelemetryRuns, st.TelemetryBytes)
	}

	// Cached round-trip: same request, same digest, no recomputation.
	var again RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", body, &again)
	if !again.Cached {
		t.Error("second identical telemetry run did not hit the cache")
	}
	if again.Telemetry != run.Telemetry {
		t.Errorf("cached run returned digest %q, first run %q", again.Telemetry, run.Telemetry)
	}
	if again.TimeFS != run.TimeFS || again.Stats.Reconfigs != run.Stats.Reconfigs {
		t.Error("cached telemetry run disagrees with the computed one")
	}
}

// TestTelemetryResultNeutral pins the exclusion rule at the HTTP layer: the
// same simulation with and without telemetry must return identical results,
// and the telemetry-off response must never carry a digest.
func TestTelemetryResultNeutral(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var plain, telled RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "art", "window": 20000}`, &plain)
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "art", "window": 20000, "telemetry": true}`, &telled)

	if plain.Telemetry != "" {
		t.Errorf("telemetry-off run carries digest %q", plain.Telemetry)
	}
	if telled.Telemetry == "" {
		t.Error("telemetry-on run carries no digest")
	}
	if plain.TimeFS != telled.TimeFS || !reflect.DeepEqual(plain.Stats, telled.Stats) {
		t.Error("telemetry flag changed the simulation result")
	}
	// (The telemetry twin recomputes once — the plain run produced no
	// artifact — but its result blob lands under the SAME cache key.)

	// Exclusion rule, both directions: a plain re-issue hits the cache the
	// telemetry run just (re)wrote, and a telemetry re-issue hits both the
	// result and the artifact; neither simulates again.
	var plainAgain, telledAgain RunResult
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "art", "window": 20000}`, &plainAgain)
	doJSON(t, http.MethodPost, srv.URL+"/v1/run", `{"bench": "art", "window": 20000, "telemetry": true}`, &telledAgain)
	if !plainAgain.Cached {
		t.Error("plain re-issue missed the cache: the telemetry flag leaked into the run cache key")
	}
	if plainAgain.Telemetry != "" {
		t.Errorf("cached telemetry-off run carries digest %q", plainAgain.Telemetry)
	}
	if !telledAgain.Cached || telledAgain.Telemetry != telled.Telemetry {
		t.Errorf("telemetry re-issue: cached %v digest %q, want cached with digest %q",
			telledAgain.Cached, telledAgain.Telemetry, telled.Telemetry)
	}
	if !reflect.DeepEqual(plainAgain.Stats, telled.Stats) {
		t.Error("cached plain result differs from the telemetry run's")
	}
}

// TestTelemetryDigestValidation pins the endpoint's error contract.
func TestTelemetryDigestValidation(t *testing.T) {
	s := newTestService(t, Config{CacheDir: t.TempDir(), Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var out map[string]string
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/telemetry/nope", "", &out); code != http.StatusBadRequest {
		t.Errorf("malformed digest returned %d, want 400", code)
	}
	unknown := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/telemetry/"+unknown, "", &out); code != http.StatusNotFound {
		t.Errorf("unknown digest returned %d, want 404", code)
	}
}
