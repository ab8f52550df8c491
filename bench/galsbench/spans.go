package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"gals/internal/metrics"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span. Spans of one caller
// operation share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. Every
// method is safe for concurrent use, and a nil *tracer records nothing, so
// untraced operations pay one nil check per span site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string, req int64) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	return t.add(span{Parent: parent, Layer: layer, Name: name, Req: req, Start: now, End: now})
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// annotate sets span id's detail.
func (t *tracer) annotate(id int, detail string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Detail = detail
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// timed runs fn inside a root span and returns fn's duration, which it
// measures whether or not t is nil.
func (t *tracer) timed(layer, name string, fn func()) time.Duration {
	id := t.begin(0, layer, name, probeReq)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// programTrace says how to fold one of the program's own span dumps (a
// sweep's Options.Tracer, a galsd ?trace=1 reply) into the benchmark's
// spans.
type programTrace struct {
	// keepRoot adds the dump's root (the traced request as the server saw
	// it) as a span of its own.
	keepRoot bool
	// layers names the layer of each program span name.
	layers map[string]string
	// nestIn names, for a span name, the sibling span it runs inside:
	// galsd records a run's record and replay spans beside its pool cell
	// rather than under it.
	nestIn map[string]string
}

var sweepTrace = programTrace{
	layers: map[string]string{
		"measure": "sweep", "cell": "sweep", "record": "workload", "replay+measure": "core",
		"cache-lookup": "resultcache", "persist": "resultcache",
	},
}

var serviceTrace = programTrace{
	keepRoot: true,
	layers: map[string]string{
		"run": "service", "cache-lookup": "resultcache", "cell": "sweep", "record": "recstore",
		"replay+measure": "core", "generate+measure": "core", "persist": "resultcache",
	},
	nestIn: map[string]string{"record": "cell", "replay+measure": "cell", "generate+measure": "cell"},
}

// fold adds dump's spans under parent.
func (t *tracer) fold(parent int, req int64, dump *metrics.TraceDump, how programTrace) {
	if t == nil || dump == nil {
		return
	}
	base := t.since(dump.Started)
	if how.keepRoot {
		parent = t.add(span{Parent: parent, Layer: how.layer(dump.Name), Name: dump.Name, Req: req,
			Start: base, End: base + dump.DurUS*1000})
	}
	t.foldChildren(parent, req, base, dump.Spans, how)
}

func (t *tracer) foldChildren(parent int, req int64, base int64, kids []*metrics.SpanData, how programTrace) {
	type placed struct {
		id         int
		name       string
		start, end int64
	}
	var sibs []placed
	for _, k := range kids {
		start := base + k.StartUS*1000
		end := start + k.DurUS*1000
		p := parent
		if host, ok := how.nestIn[k.Name]; ok {
			for i := len(sibs) - 1; i >= 0; i-- {
				// Microsecond truncation can push a child's end up to 2us
				// past its host's.
				if s := sibs[i]; s.name == host && s.start <= start && end <= s.end+2000 {
					p = s.id
					break
				}
			}
		}
		id := t.add(span{Parent: p, Layer: how.layer(k.Name), Name: k.Name, Detail: k.Detail, Req: req, Start: start, End: end})
		sibs = append(sibs, placed{id, k.Name, start, end})
		t.foldChildren(id, req, base, k.Children, how)
	}
}

func (how programTrace) layer(name string) string {
	if l, ok := how.layers[name]; ok {
		return l
	}
	return "program"
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Overlapping children (concurrent sweep
// cells) count once, and a child's time outside its parent counts nowhere.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = s.End - s.Start - covered(iv)
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := int64(math.MinInt64) // the furthest end seen so far
	for _, x := range iv {
		if from := max(x[0], end); x[1] > from {
			total += x[1] - from
			end = x[1]
		}
	}
	return total
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	ns := map[string]int64{}
	for i, st := range selfTimes(spans) {
		ns[spans[i].Layer] += st
	}
	out := map[string]float64{}
	for l, v := range ns {
		out[l] = float64(v) / 1e6
	}
	return out
}

// spanSet is one tracer's spans with their per-layer self time.
type spanSet struct {
	SelfMSByLayer map[string]float64 `json:"self_ms_by_layer"`
	Spans         []span             `json:"spans"`
}

func newSpanSet(t *tracer) spanSet {
	s := t.snapshot()
	return spanSet{SelfMSByLayer: selfByLayer(s), Spans: s}
}

// spanFile is what a traced run writes: the traced segments of the window,
// and the layer probe that yields the per-layer metrics.
type spanFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Window   spanSet `json:"window"`
	Probe    spanSet `json:"probe"`
}
