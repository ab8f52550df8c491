// Package metrics is a dependency-free instrumentation layer: atomic
// counters, gauges and fixed-bucket latency histograms with Prometheus
// text-format exposition (version 0.0.4, the format every scraper speaks).
//
// The design constraint is the simulator's hot path: nothing in this
// package takes a lock on the observation side. Counters and gauges are
// single atomic adds; a histogram observation is one atomic add into its
// bucket plus a CAS loop folding the value into the sum — lock-free and
// allocation-free, so instrumented layers (the cell pool, the HTTP
// service) pay nanoseconds per event. All locking lives on the scrape
// side, where a registry snapshot is read perhaps once per second.
//
// Metrics whose source of truth already exists as an atomic counter
// elsewhere (the pool's cell counts, the result cache's hit counts) are
// exported as *Func variants that read the authoritative value at scrape
// time — zero new cost on the owning code path, and the JSON stats
// surface and /metrics can never disagree.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds named metrics and renders them in Prometheus text
// format. The zero value is not usable; create with NewRegistry. All
// methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	metrics []collector
}

// collector is anything that can emit its samples into an exposition.
type collector interface {
	describe() (name, help, typ string)
	collect() []Sample
}

// A Sample is one exposition line: a metric name (possibly suffixed, for
// histogram series), an optional rendered label set and a value.
type Sample struct {
	// Suffix is appended to the metric family name ("_bucket", "_sum",
	// "_count" for histograms; "" for scalar metrics).
	Suffix string
	// Labels are the sample's label pairs in render order.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// Label is one label pair.
type Label struct{ Key, Value string }

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(c collector) {
	name, _, _ := c.describe()
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, c)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	return validName(name) && !strings.Contains(name, ":")
}

// WriteTo renders every registered metric in Prometheus text format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	ms := append([]collector(nil), r.metrics...)
	r.mu.Unlock()

	out := &countingWriter{w: w}
	b := bufio.NewWriter(out)
	for _, m := range ms {
		name, help, typ := m.describe()
		fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		for _, s := range m.collect() {
			b.WriteString(name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Key)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
	}
	err := b.Flush()
	return out.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Handler serves the registry as text/plain (the Prometheus scrape
// endpoint behind GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, +Inf spelled out.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------------
// Counters.

// A Counter is a monotonically increasing value. Increment with Add/Inc
// (one atomic add); read with Value.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(c)
	return c
}

// Inc adds 1. Nil-safe, so call sites need no wiring guards.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must be >= 0; a counter never decreases).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) describe() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) collect() []Sample                  { return []Sample{{Value: float64(c.v.Load())}} }

// ---------------------------------------------------------------------------
// Gauges.

// A Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.add(g)
	return g
}

// Set stores v. Add adds delta (negative allowed). Both nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) describe() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) collect() []Sample                  { return []Sample{{Value: float64(g.v.Load())}} }

// ---------------------------------------------------------------------------
// Func-backed metrics: exposition over counters that live elsewhere.

type funcMetric struct {
	name, help, typ string
	fn              func() []Sample
}

func (f *funcMetric) describe() (string, string, string) { return f.name, f.help, f.typ }
func (f *funcMetric) collect() []Sample                  { return f.fn() }

// NewCounterFunc registers a counter whose value is read at scrape time —
// the bridge for code paths that already keep an authoritative atomic
// counter (pool cell counts, cache hits): zero new cost where events happen.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.add(&funcMetric{name: name, help: help, typ: "counter",
		fn: func() []Sample { return []Sample{{Value: fn()}} }})
}

// NewGaugeFunc registers a gauge read at scrape time (queue depths,
// in-flight counts owned by the pool).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&funcMetric{name: name, help: help, typ: "gauge",
		fn: func() []Sample { return []Sample{{Value: fn()}} }})
}

// NewFunc registers a fully general collector: fn returns one sample per
// label set at scrape time (e.g. per-policy reconfiguration counts whose
// label space grows at run time). typ must be "counter" or "gauge".
func (r *Registry) NewFunc(name, help, typ string, fn func() []Sample) {
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("metrics: NewFunc type %q (want counter or gauge)", typ))
	}
	r.add(&funcMetric{name: name, help: help, typ: typ, fn: fn})
}

// ---------------------------------------------------------------------------
// Histograms.

// DefBuckets are the default latency buckets in seconds: 100µs to 2min in
// roughly-2.5x steps — wide enough for a cached run (sub-millisecond) and
// a cold paper-scale suite stage (minutes) on one scale.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// A Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add into the bucket, one CAS fold into the running sum.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf bucket is implicit
	counts     []atomic.Int64
	sumBits    atomic.Uint64 // float64 bits of the observation sum
	count      atomic.Int64
	labels     []Label // fixed label pairs rendered on every series
}

// NewHistogram registers a histogram with the given upper bounds
// (ascending; nil selects DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds, nil)
	r.add(h)
	return h
}

func newHistogram(name, help string, bounds []float64, labels []Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	return &Histogram{
		name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		labels: labels,
	}
}

// Observe records one value (for latency histograms, seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (~20) and the scan is branch-
	// predictable; a binary search saves nothing at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot returns the cumulative bucket counts (one per bound, plus the
// +Inf bucket last) as rendered in the exposition.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), h.bounds...)
	bounds = append(bounds, math.Inf(+1))
	cumulative = make([]int64, len(h.counts))
	var c int64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

func (h *Histogram) describe() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) collect() []Sample {
	bounds, cum := h.Snapshot()
	out := make([]Sample, 0, len(cum)+2)
	for i, b := range bounds {
		le := "+Inf"
		if !math.IsInf(b, +1) {
			le = strconv.FormatFloat(b, 'g', -1, 64)
		}
		labels := append(append([]Label(nil), h.labels...), Label{"le", le})
		out = append(out, Sample{Suffix: "_bucket", Labels: labels, Value: float64(cum[i])})
	}
	out = append(out,
		Sample{Suffix: "_sum", Labels: h.labels, Value: h.Sum()},
		Sample{Suffix: "_count", Labels: h.labels, Value: float64(h.Count())})
	return out
}

// ---------------------------------------------------------------------------
// Labeled vectors. One label dimension covers every consumer in this repo
// (endpoint, status code, policy); the children map is read-locked on the
// first observation per label value only — steady-state lookups are one
// RLock around a map read, and the returned child is cacheable by callers
// that want even that gone.

// A CounterVec is a counter family partitioned by one label.
type CounterVec struct {
	name, help, label string
	mu                sync.RWMutex
	children          map[string]*Counter
}

// NewCounterVec registers a counter family with one label dimension.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if !validLabelName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
	r.add(v)
	return v
}

// With returns the child counter for the label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{name: v.name}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) describe() (string, string, string) { return v.name, v.help, "counter" }

func (v *CounterVec) collect() []Sample {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		out = append(out, Sample{Labels: []Label{{v.label, k}}, Value: float64(c.Value())})
	}
	return out
}

// A HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct {
	name, help, label string
	bounds            []float64
	mu                sync.RWMutex
	children          map[string]*Histogram
}

// NewHistogramVec registers a histogram family with one label dimension
// (nil bounds selects DefBuckets).
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if !validLabelName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	v := &HistogramVec{name: name, help: help, label: label, bounds: bounds, children: make(map[string]*Histogram)}
	r.add(v)
	return v
}

// With returns the child histogram for the label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h == nil {
		h = newHistogram(v.name, v.help, v.bounds, []Label{{v.label, value}})
		v.children[value] = h
	}
	return h
}

func (v *HistogramVec) describe() (string, string, string) { return v.name, v.help, "histogram" }

func (v *HistogramVec) collect() []Sample {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	var out []Sample
	for _, k := range keys {
		v.mu.RLock()
		h := v.children[k]
		v.mu.RUnlock()
		out = append(out, h.collect()...)
	}
	return out
}
