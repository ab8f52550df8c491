package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRunRequestNormalize decodes arbitrary bytes as a /v1/run body, the
// way the handler does, and normalizes the request. Every input must either
// fail (a 400) or normalize to a fixed point: normalizing the result again
// changes nothing, so the request and its normalized form share one cache
// key. It must never panic.
func FuzzRunRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req RunRequest
		if dec.Decode(&req) != nil {
			return
		}
		n, err := req.normalize()
		if err != nil {
			return
		}
		again, err := n.normalize()
		if err != nil {
			t.Fatalf("normalized request %+v fails normalization: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("normalization is not idempotent:\n%+v\n%+v", n, again)
		}
		if again.cacheKey() != n.cacheKey() || again.telemetryKey() != n.telemetryKey() {
			t.Fatalf("keys moved under renormalization: %s vs %s", n.cacheKey(), again.cacheKey())
		}
	})
}
