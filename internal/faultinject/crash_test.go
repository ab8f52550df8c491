package faultinject

import (
	"strings"
	"testing"
)

// TestCrashModeAbortsAtPoint pins the "crash" mode's contract in-process by
// swapping the exit hook: an armed crash plan calls the process-abort path
// with CrashExitCode exactly at its injection point, honors the
// deterministic rate schedule, and leaves unarmed points untouched.
func TestCrashModeAbortsAtPoint(t *testing.T) {
	defer Disable()
	var exits []int
	old := crashExit
	crashExit = func(code int) { exits = append(exits, code) }
	defer func() { crashExit = old }()

	if err := Enable("resultcache.read=crash"); err != nil {
		t.Fatal(err)
	}
	// An unarmed point never crashes.
	if err := Err(ServiceDispatch); err != nil || len(exits) != 0 {
		t.Fatalf("unarmed point: err=%v exits=%v", err, exits)
	}
	// The armed point aborts with the documented status. The swapped hook
	// returns (the real one never does), so Err falls through to nil.
	if err := Err(ResultCacheRead); err != nil {
		t.Fatalf("crash plan returned error %v", err)
	}
	if len(exits) != 1 || exits[0] != CrashExitCode {
		t.Fatalf("exits = %v, want one exit with code %d", exits, CrashExitCode)
	}

	// A fractional rate follows the floor(n*rate) schedule: rate 0.5
	// crashes calls 2, 4, 6, ... only.
	if err := Enable("recstore.open=crash:0.5"); err != nil {
		t.Fatal(err)
	}
	exits = nil
	for i := 0; i < 6; i++ {
		Err(RecstoreOpen)
	}
	if len(exits) != 3 {
		t.Fatalf("rate 0.5 over 6 calls crashed %d times, want 3", len(exits))
	}

	// The spec grammar rejects a crash delay no differently than other
	// modes accept one — but an unknown mode still names crash in its hint.
	err := Enable("recstore.open=explode")
	if err == nil || !strings.Contains(err.Error(), "crash") {
		t.Fatalf("unknown-mode error %v does not list crash", err)
	}
}
