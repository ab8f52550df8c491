package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount per call, so span timings in
// tests are exact.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t
}

func TestTraceJSONRoundTrip(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Millisecond}
	tr := newTracerAt("sweep", clk.now)
	stage := tr.Start("measure", "sync space")
	cell := stage.Child("cell", "64k1W/gcc")
	rec := cell.Child("record", "gcc")
	rec.End()
	sim := cell.Child("replay+measure", "")
	sim.End()
	cell.End()
	stage.End()
	persist := tr.Start("persist", "")
	persist.End()

	blob, err := json.MarshalIndent(tr.Finish(), "", "  ")
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var dump TraceDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if dump.Name != "sweep" {
		t.Errorf("name = %q", dump.Name)
	}
	if len(dump.Spans) != 2 {
		t.Fatalf("top-level spans = %d, want 2", len(dump.Spans))
	}
	m := dump.Spans[0]
	if m.Name != "measure" || m.Detail != "sync space" {
		t.Errorf("stage span = %+v", m)
	}
	if len(m.Children) != 1 || m.Children[0].Name != "cell" {
		t.Fatalf("cell children = %+v", m.Children)
	}
	cellD := m.Children[0]
	if len(cellD.Children) != 2 || cellD.Children[0].Name != "record" || cellD.Children[1].Name != "replay+measure" {
		t.Fatalf("cell sub-spans = %+v", cellD.Children)
	}
	// With a 1ms-per-observation clock, every span's recorded duration is
	// the number of clock reads between its start and end, exactly.
	if cellD.Children[0].DurUS != 1000 {
		t.Errorf("record span dur = %dus, want 1000", cellD.Children[0].DurUS)
	}
	// The cell span covers both sub-spans plus their bookkeeping reads.
	if cellD.DurUS <= cellD.Children[0].DurUS {
		t.Errorf("cell (%dus) should outlast its record child (%dus)", cellD.DurUS, cellD.Children[0].DurUS)
	}
	// Children start at or after their parent.
	if cellD.Children[0].StartUS < cellD.StartUS || m.Children[0].StartUS < m.StartUS {
		t.Error("child starts before parent")
	}
	// Serialize again: byte-stable output for identical data.
	blob2, _ := json.MarshalIndent(&dump, "", "  ")
	var dump2 TraceDump
	if err := json.Unmarshal(blob2, &dump2); err != nil {
		t.Fatalf("second round trip: %v", err)
	}
	if len(dump2.Spans) != len(dump.Spans) {
		t.Error("span count changed across round trips")
	}
}

// TestTraceConcurrentChildren attaches children to one parent from many
// goroutines — the sweep shape, where cells of one stage finish on
// different workers. Run under -race.
func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTracer("sweep")
	stage := tr.Start("measure", "")
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := stage.Child("cell", "")
			sub := c.Child("replay+measure", "")
			sub.End()
			c.End()
		}()
	}
	wg.Wait()
	stage.End()
	dump := tr.Finish()
	if len(dump.Spans) != 1 || len(dump.Spans[0].Children) != n {
		t.Fatalf("got %d cells, want %d", len(dump.Spans[0].Children), n)
	}
	for _, c := range dump.Spans[0].Children {
		if len(c.Children) != 1 {
			t.Fatalf("cell missing sub-span: %+v", c)
		}
	}
}

// TestNilTracerNoops: every call site threads a possibly-nil tracer; the
// whole surface must be safe on nil.
func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", "y")
	c := s.Child("z", "")
	c.Annotate("detail")
	c.End()
	s.End()
	if tr.Finish() != nil {
		t.Error("nil tracer Finish should be nil")
	}
}

// TestTraceSpanCap: past maxSpans, spans (and the children of a dropped
// span) are counted instead of recorded, so a trace over tens of thousands
// of cells stays bounded; a trace under the cap reports no drops.
func TestTraceSpanCap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Microsecond}
	tr := newTracerAt("suite", clk.now)
	stage := tr.Start("measure", "")
	var wg sync.WaitGroup
	const workers, cells = 4, maxSpans
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cells/workers; i++ {
				cell := stage.Child("cell", "")
				cell.Child("replay+measure", "").End()
				cell.Annotate("done")
				cell.End()
			}
		}()
	}
	wg.Wait()
	stage.End()
	dump := tr.Finish()
	recorded := 0
	var count func([]*SpanData)
	count = func(spans []*SpanData) {
		for _, sp := range spans {
			recorded++
			count(sp.Children)
		}
	}
	count(dump.Spans)
	opened := 1 + 2*cells
	if recorded != maxSpans || dump.DroppedSpans != int64(opened-maxSpans) {
		t.Fatalf("recorded %d spans and dropped %d, want %d and %d", recorded, dump.DroppedSpans, maxSpans, opened-maxSpans)
	}
	blob, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDump
	if err := json.Unmarshal(blob, &back); err != nil || back.DroppedSpans != dump.DroppedSpans {
		t.Fatalf("dropped_spans did not round-trip: %v, %d", err, back.DroppedSpans)
	}

	small := newTracerAt("run", clk.now)
	small.Start("cell", "").End()
	blob, err = json.Marshal(small.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("dropped_spans")) {
		t.Fatalf("a trace under the cap reports drops: %s", blob)
	}
}
