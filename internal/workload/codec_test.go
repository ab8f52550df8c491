package workload

import (
	"bytes"
	"context"
	"testing"

	"gals/internal/isa"
)

// TestCodecRoundTrip: every field of every instruction of a recorded
// stream survives encode -> decode exactly.
func TestCodecRoundTrip(t *testing.T) {
	spec, _ := ByName("apsi") // phase-cycling, FP-heavy: exercises all classes
	tr := spec.NewTrace()
	var in, out isa.Inst
	buf := make([]byte, 0, EncodedInstSize)
	for i := 0; i < 20_000; i++ {
		tr.Next(&in)
		buf = appendInst(buf[:0], &in)
		if len(buf) != EncodedInstSize {
			t.Fatalf("encoded %d bytes, want %d", len(buf), EncodedInstSize)
		}
		decodeInst(buf, &out)
		if in != out {
			t.Fatalf("instruction %d did not round-trip: %v vs %v", i, in, out)
		}
	}
}

// TestRecordToMatchesRecord: the streaming encoder produces exactly the
// slab that RecordingFromEncoded replays, bit-identical to Spec.Record.
func TestRecordToMatchesRecord(t *testing.T) {
	spec, _ := ByName("gcc")
	const n = 3000
	var blob bytes.Buffer
	if err := spec.RecordToContext(context.Background(), &blob, n); err != nil {
		t.Fatal(err)
	}
	if blob.Len() != n*EncodedInstSize {
		t.Fatalf("streamed %d bytes, want %d", blob.Len(), n*EncodedInstSize)
	}
	enc, err := RecordingFromEncoded(spec, blob.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Len() != n {
		t.Fatalf("encoded recording length %d, want %d", enc.Len(), n)
	}
	mem := spec.Record(n)
	a, b := enc.Replay(), mem.Replay()
	var x, y isa.Inst
	for i := 0; i < n+100; i++ { // +100 crosses into the live-tail fallback
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatalf("encoded replay differs at instruction %d", i)
		}
	}
}

// TestRecordingFromEncodedRejectsRaggedSlabs: a slab that is not a whole
// number of instructions is an error, not a silent truncation.
func TestRecordingFromEncodedRejectsRaggedSlabs(t *testing.T) {
	spec, _ := ByName("gcc")
	if _, err := RecordingFromEncoded(spec, make([]byte, EncodedInstSize+7)); err == nil {
		t.Error("ragged slab accepted")
	}
	if _, err := RecordingFromEncoded(spec, nil); err == nil {
		t.Error("empty slab accepted")
	}
}

// fakeBacking serves pre-encoded slabs and counts calls.
type fakeBacking struct {
	calls int
	fail  bool
}

func (f *fakeBacking) Recording(s Spec, window int64) (*Recording, error) {
	f.calls++
	if f.fail {
		return nil, bytes.ErrTooLarge
	}
	var blob bytes.Buffer
	if err := s.RecordToContext(context.Background(), &blob, window); err != nil {
		return nil, err
	}
	return RecordingFromEncoded(s, blob.Bytes())
}

// TestBackedPool: a backed pool asks the backing once per benchmark and the
// result replays identically to an in-memory pool; a failing backing
// degrades to in-memory recording.
func TestBackedPool(t *testing.T) {
	spec, _ := ByName("em3d")
	const n = 800

	fb := &fakeBacking{}
	p := NewBackedPool(n, fb)
	rec := p.Get(spec)
	if fb.calls != 1 {
		t.Fatalf("backing called %d times, want 1", fb.calls)
	}
	if p.Get(spec) != rec {
		t.Fatal("backed pool did not share the recording")
	}
	if fb.calls != 1 {
		t.Fatalf("backing re-called on a cached benchmark (%d calls)", fb.calls)
	}
	want := NewPool(n).Get(spec)
	a, b := rec.Replay(), want.Replay()
	var x, y isa.Inst
	for i := 0; i < n; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatalf("backed replay differs at instruction %d", i)
		}
	}

	bad := NewBackedPool(n, &fakeBacking{fail: true})
	rec2 := bad.Get(spec)
	if rec2 == nil || rec2.Len() != n {
		t.Fatal("failing backing did not degrade to in-memory recording")
	}
	c := rec2.Replay()
	d := want.Replay()
	for i := 0; i < n; i++ {
		c.Next(&x)
		d.Next(&y)
		if x != y {
			t.Fatalf("degraded replay differs at instruction %d", i)
		}
	}
}
