package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeBody decodes a request body the way the handlers do.
func decodeBody(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// FuzzRunRequestNormalize decodes arbitrary bytes as a /v1/run body, the
// way the handler does, and normalizes the request. Every input must either
// fail (a 400) or normalize to a fixed point: normalizing the result again
// changes nothing, so the request and its normalized form share one cache
// key. It must never panic.
func FuzzRunRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if !decodeBody(body, &req) {
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

// FuzzSweepRequestNormalize is FuzzRunRequestNormalize for /v1/sweep
// bodies: every input either fails or normalizes to a fixed point with a
// stable cache key, and never panics.
func FuzzSweepRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if !decodeBody(body, &req) {
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
		if again.cacheKey() != n.cacheKey() {
			t.Fatalf("key moved under renormalization: %s vs %s", n.cacheKey(), again.cacheKey())
		}
	})
}

// FuzzSuiteRequestNormalize is FuzzRunRequestNormalize for /v1/suite
// bodies: every input either fails or normalizes to a fixed point whose
// cache key is the request's own, and never panics.
func FuzzSuiteRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SuiteRequest
		if !decodeBody(body, &req) {
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
		if n.cacheKey() != req.cacheKey() || again.cacheKey() != n.cacheKey() {
			t.Fatalf("key moved under normalization: %s, %s, %s", req.cacheKey(), n.cacheKey(), again.cacheKey())
		}
	})
}
