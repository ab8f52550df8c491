package main

import (
	"testing"
	"time"

	"gals/internal/metrics"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "service", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "core", Start: 30, End: 60},   // overlaps span 2: the overlap counts once
		{ID: 4, Parent: 2, Layer: "core", Start: 15, End: 20},   // grandchild
		{ID: 5, Parent: 1, Layer: "sweep", Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{
		100 - 50 - 10, // children cover [10,60] and [90,100]
		30 - 5,
		30,
		5,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i+1, got[i], want[i])
		}
	}
	byLayer := selfByLayer(spans)
	for layer, ns := range map[string]int64{"client": 40, "service": 25, "core": 35, "sweep": 30} {
		if byLayer[layer] != float64(ns)/1e6 {
			t.Errorf("layer %s self %v ms, want %v", layer, byLayer[layer], float64(ns)/1e6)
		}
	}
}

// TestFoldNestsServiceSpans checks that galsd's flat spans fold into a
// tree: record and replay go under the pool cell they ran in.
func TestFoldNestsServiceSpans(t *testing.T) {
	tr := newTracer()
	parent := tr.begin(0, "client", "Client.Run", 7)
	dump := &metrics.TraceDump{Name: "run", Started: tr.t0.Add(time.Millisecond), DurUS: 900, Spans: []*metrics.SpanData{
		{Name: "cache-lookup", StartUS: 0, DurUS: 20},
		{Name: "cell", StartUS: 25, DurUS: 800},
		{Name: "record", StartUS: 30, DurUS: 10},
		{Name: "replay+measure", StartUS: 45, DurUS: 780}, // truncation: ends 1us after the cell
		{Name: "persist", StartUS: 830, DurUS: 60},
	}}
	tr.fold(parent, 7, dump, serviceTrace)
	tr.end(parent)
	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	for name, want := range map[string]string{
		"run": "Client.Run", "cache-lookup": "run", "cell": "run",
		"record": "cell", "replay+measure": "cell", "persist": "run",
	} {
		s := byName[name]
		if p := tr.snapshot()[s.Parent-1].Name; p != want {
			t.Errorf("%s's parent is %s, want %s", name, p, want)
		}
		if s.Req != 7 {
			t.Errorf("%s has request id %d, want 7", name, s.Req)
		}
	}
	if l := byName["record"].Layer; l != "recstore" {
		t.Errorf("galsd's record span is in layer %s, want recstore", l)
	}
	if s := byName["run"]; s.End-s.Start != 900_000 {
		t.Errorf("server span lasts %d ns, want 900000", s.End-s.Start)
	}
}
