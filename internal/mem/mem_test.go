package mem

import (
	"testing"

	"gals/internal/timing"
)

func TestSingleAccessLatency(t *testing.T) {
	m := New()
	done := m.Access(0, 128)
	if want := timing.MemLatency(128); done != want {
		t.Errorf("completion %d, want %d", done, want)
	}
}

func TestBackToBackSerializesOnChannel(t *testing.T) {
	m := New()
	d1 := m.Access(0, 128)
	d2 := m.Access(0, 128)
	if d2 <= d1 {
		t.Errorf("second access (%d) not after first (%d)", d2, d1)
	}
	// The channel frees after the 8-chunk transfer window, so the second
	// access overlaps its row activation with the first's tail.
	if d2 >= 2*d1 {
		t.Errorf("no pipelining: second access at %d, first at %d", d2, d1)
	}
}

func TestIdleChannelNoQueueing(t *testing.T) {
	m := New()
	m.Access(0, 64)
	late := timing.FS(1_000_000_000) // long after the first completes
	done := m.Access(late, 64)
	if want := late + timing.MemLatency(64); done != want {
		t.Errorf("idle-channel completion %d, want %d", done, want)
	}
}
