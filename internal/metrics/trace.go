// The sweep tracer: span-style wall-time attribution for one request.
// Metrics answer "how is the service doing"; a trace answers "where did
// THIS sweep's 40 seconds go" — per-cell spans (record → replay/measure,
// then the sweep-level persist), nested under the stage that ran them, and
// dumpable as JSON via galsd's ?trace=1 query or -trace-dir flag.
//
// Tracing is strictly opt-in and nil-safe: every method on a nil *Tracer
// or zero Span is a no-op, so instrumented layers thread a possibly-nil
// tracer without guards and untraced requests pay a nil check per span
// site, nothing more.
package metrics

import (
	"sync"
	"time"
)

// maxSpans bounds the spans one trace records. A cold suite opens a few
// spans per cell over tens of thousands of cells; past the cap, spans are
// counted in TraceDump.DroppedSpans instead of recorded, so a trace stays
// under a megabyte. The cap is well above a single traced sweep's thousand
// or so spans.
const maxSpans = 4096

// A Tracer collects one request's span tree. Create with NewTracer;
// concurrent Span/Child/End calls are safe (sweep cells run on many
// workers at once).
type Tracer struct {
	mu      sync.Mutex
	root    *SpanData
	spans   int   // spans recorded, at most maxSpans
	dropped int64 // spans opened past maxSpans
	t0      time.Time
	now     func() time.Time
}

// SpanData is the serialized form of one span. StartUS is relative to the
// trace's start, so dumps are stable and diffable across runs.
type SpanData struct {
	Name     string      `json:"name"`
	Detail   string      `json:"detail,omitempty"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	Children []*SpanData `json:"children,omitempty"`
}

// TraceDump is the on-the-wire shape of a finished trace (the "trace"
// field of a ?trace=1 response, and the content of a -trace-dir file).
type TraceDump struct {
	Name    string    `json:"name"`
	Started time.Time `json:"started"`
	// DurUS is the root span's duration: trace creation to Finish.
	DurUS int64       `json:"dur_us"`
	Spans []*SpanData `json:"spans,omitempty"`
	// DroppedSpans counts the spans opened past maxSpans, which the trace
	// does not hold.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// A Span is a handle on one in-progress span. The zero Span is a no-op; a
// span dropped past maxSpans has no data, and its children are dropped too.
type Span struct {
	tr    *Tracer
	d     *SpanData
	start time.Time
}

// NewTracer starts a trace whose root is named name.
func NewTracer(name string) *Tracer { return newTracerAt(name, time.Now) }

// newTracerAt starts a trace that reads time from now (tests inject a
// deterministic clock).
func newTracerAt(name string, now func() time.Time) *Tracer {
	t := &Tracer{now: now}
	t.t0 = t.now()
	t.root = &SpanData{Name: name}
	return t
}

// Start opens a top-level span (a direct child of the root).
func (t *Tracer) Start(name, detail string) Span {
	if t == nil {
		return Span{}
	}
	return t.child(t.root, name, detail)
}

func (t *Tracer) child(parent *SpanData, name, detail string) Span {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil || t.spans >= maxSpans {
		t.dropped++
		return Span{tr: t}
	}
	t.spans++
	d := &SpanData{Name: name, Detail: detail, StartUS: now.Sub(t.t0).Microseconds()}
	parent.Children = append(parent.Children, d)
	return Span{tr: t, d: d, start: now}
}

// Child opens a sub-span of s. Safe to call from multiple goroutines on
// the same parent (concurrent cells under one stage).
func (s Span) Child(name, detail string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.child(s.d, name, detail)
}

// End closes the span, recording its duration. Ending twice keeps the
// later (longer) duration; ending a zero Span is a no-op.
func (s Span) End() {
	if s.d == nil {
		return
	}
	dur := s.tr.now().Sub(s.start).Microseconds()
	s.tr.mu.Lock()
	s.d.DurUS = dur
	s.tr.mu.Unlock()
}

// Annotate replaces the span's detail string (e.g. marking a cache hit
// after the lookup resolved).
func (s Span) Annotate(detail string) {
	if s.d == nil {
		return
	}
	s.tr.mu.Lock()
	s.d.Detail = detail
	s.tr.mu.Unlock()
}

// Finish seals the trace and returns its dump. Spans still open keep
// whatever duration they last recorded (zero if never ended).
func (t *Tracer) Finish() *TraceDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceDump{
		Name:         t.root.Name,
		Started:      t.t0,
		DurUS:        t.now().Sub(t.t0).Microseconds(),
		Spans:        t.root.Children,
		DroppedSpans: t.dropped,
	}
}
