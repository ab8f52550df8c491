package faultinject

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestInjectSpecParsing(t *testing.T) {
	defer Disable()

	good := []string{
		"",
		"resultcache.read=error",
		"resultcache.read=corrupt:0.5",
		"service.dispatch=slow:1:50ms",
		"resultcache.read=truncate, recstore.open=error:0.25 ,recstore.mmap=error",
		"resultcache.write=enospc:0.1",
	}
	for _, spec := range good {
		if err := Enable(spec); err != nil {
			t.Errorf("Enable(%q) = %v, want nil", spec, err)
		}
	}

	bad := []string{
		"resultcache.read",                  // no mode
		"nosuch.point=error",                // unknown point
		"resultcache.read=explode",          // unknown mode
		"resultcache.read=error:0",          // rate out of (0,1]
		"resultcache.read=error:1.5",        // rate out of (0,1]
		"resultcache.read=error:x",          // unparsable rate
		"service.dispatch=slow:1:-5ms",      // negative delay
		"service.dispatch=slow:1:10ms:junk", // trailing fields
	}
	for _, spec := range bad {
		if err := Enable(spec); err == nil {
			t.Errorf("Enable(%q) = nil, want error", spec)
		}
	}
}

func TestInjectEnableDisable(t *testing.T) {
	defer Disable()

	if Active() {
		t.Fatal("Active() before Enable")
	}
	if err := Enable("service.dispatch=error"); err != nil {
		t.Fatal(err)
	}
	if !Active() {
		t.Fatal("Active() = false after Enable")
	}
	if err := Err(ServiceDispatch); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err(ServiceDispatch) = %v, want ErrInjected", err)
	}
	if err := Err(ResultCacheRead); err != nil {
		t.Fatalf("Err on unarmed point = %v, want nil", err)
	}

	if err := Enable(""); err != nil { // Enable("") is Disable
		t.Fatal(err)
	}
	if Active() {
		t.Fatal("Active() after Enable(\"\")")
	}
	if err := Err(ServiceDispatch); err != nil {
		t.Fatalf("Err after disable = %v, want nil", err)
	}
}

func TestInjectDeterministicRate(t *testing.T) {
	defer Disable()

	if err := Enable("service.dispatch=error:0.25"); err != nil {
		t.Fatal(err)
	}
	var pattern []bool
	fails := 0
	for i := 0; i < 100; i++ {
		err := Err(ServiceDispatch)
		pattern = append(pattern, err != nil)
		if err != nil {
			fails++
		}
	}
	if fails != 25 {
		t.Fatalf("rate 0.25 over 100 calls injected %d times, want exactly 25", fails)
	}
	// floor(n*0.25) increments at n = 4, 8, 12, ...
	for i, fired := range pattern {
		want := (i+1)%4 == 0
		if fired != want {
			t.Fatalf("call %d: injected=%v, want %v", i+1, fired, want)
		}
	}

	// Re-arming resets the schedule: the pattern replays identically.
	if err := Enable("service.dispatch=error:0.25"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if fired := Err(ServiceDispatch) != nil; fired != pattern[i] {
			t.Fatalf("replay diverged at call %d", i+1)
		}
	}
}

func TestInjectEnospc(t *testing.T) {
	defer Disable()

	if err := Enable("resultcache.write=enospc"); err != nil {
		t.Fatal(err)
	}
	err := Err(ResultCacheWrite)
	if !errors.Is(err, ErrNoSpace) || !errors.Is(err, ErrInjected) {
		t.Fatalf("Err = %v, want ErrNoSpace (wrapping ErrInjected)", err)
	}
	if !strings.Contains(err.Error(), "resultcache.write") {
		t.Fatalf("error %q does not name its point", err)
	}
}

func TestInjectMutateLeavesInputIntact(t *testing.T) {
	defer Disable()

	blob := []byte(`{"v":"some result blob with enough bytes to matter"}`)
	orig := append([]byte(nil), blob...)

	if got := Mutate(ResultCacheRead, blob); !bytes.Equal(got, blob) {
		t.Fatal("Mutate while disabled changed the blob")
	}

	if err := Enable("resultcache.read=corrupt"); err != nil {
		t.Fatal(err)
	}
	got := Mutate(ResultCacheRead, blob)
	if bytes.Equal(got, blob) {
		t.Fatal("corrupt Mutate returned the blob unchanged")
	}
	if !bytes.Equal(blob, orig) {
		t.Fatal("Mutate modified its input in place (it may be an mmap)")
	}

	if err := Enable("resultcache.read=truncate"); err != nil {
		t.Fatal(err)
	}
	if got := Mutate(ResultCacheRead, blob); len(got) != len(blob)/2 {
		t.Fatalf("truncate Mutate returned %d bytes, want %d", len(got), len(blob)/2)
	}
	if !bytes.Equal(blob, orig) {
		t.Fatal("truncate Mutate modified its input")
	}
}

func TestInjectSlowSleeps(t *testing.T) {
	defer Disable()

	if err := Enable("service.dispatch=slow:1:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Err(ServiceDispatch); err != nil {
		t.Fatalf("slow plan returned error %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slow plan slept %v, want >= 30ms", d)
	}
}
