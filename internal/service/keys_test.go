package service

import (
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
		{run.cacheKey(), "run/bf4ca3cf3db90c3107250ac0f78c6ad3108ca2ec0135e7418b50af9294932b16"},
		{run.telemetryKey(), "telemetry/d5245fece093c0299f4cd9dd4739a727f4216c8e35c30f2a87d35e94bab79838"},
		{sw.cacheKey(), "sweepreq/c98c0222896286460b68326ea829f739cd1bf37378ecb887aded4e4dac0a737f"},
		{suite.cacheKey(), "suitereq/9a2efa70a815cf22f23be75481e4b847f8544c87a4cc18ed5b078b64c8020bb2"},
	} {
		if c.got != c.want {
			t.Errorf("key %s, want %s", c.got, c.want)
		}
	}
}
