package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionParses is the format-validity gate: a registry exercising
// every metric type must render an exposition our own strict parser
// accepts line by line, with matching TYPE declarations.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "operations so far")
	c.Add(3)
	g := r.NewGauge("test_depth", "current queue depth")
	g.Add(-2)
	r.NewCounterFunc("test_func_total", "func-backed counter", func() float64 { return 7 })
	r.NewGaugeFunc("test_func_gauge", "func-backed gauge", func() float64 { return 1.5 })
	r.NewFunc("test_labeled_total", "per-policy counts", "counter", func() []Sample {
		return []Sample{
			{Labels: []Label{{"policy", "paper"}}, Value: 4},
			{Labels: []Label{{"policy", `we"ird\pol`}}, Value: 1},
		}
	})
	h := r.NewHistogram("test_latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(50)
	cv := r.NewCounterVec("test_status_total", "responses by code", "code")
	cv.With("200").Add(9)
	cv.With("503").Inc()
	hv := r.NewHistogramVec("test_endpoint_seconds", "latency by endpoint", "endpoint", []float64{0.1, 1})
	hv.With("/v1/run").Observe(0.05)
	hv.With("/v1/sweep").Observe(2)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := b.String()
	sc, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}

	wantTypes := map[string]string{
		"test_ops_total":        "counter",
		"test_depth":            "gauge",
		"test_func_total":       "counter",
		"test_func_gauge":       "gauge",
		"test_labeled_total":    "counter",
		"test_latency_seconds":  "histogram",
		"test_status_total":     "counter",
		"test_endpoint_seconds": "histogram",
	}
	for name, typ := range wantTypes {
		if got := sc.Types[name]; got != typ {
			t.Errorf("TYPE %s = %q, want %q", name, got, typ)
		}
	}
	if v, ok := sc.Value("test_ops_total"); !ok || v != 3 {
		t.Errorf("test_ops_total = %v, %v", v, ok)
	}
	if v, ok := sc.Value("test_depth"); !ok || v != -2 {
		t.Errorf("test_depth = %v, %v", v, ok)
	}
	if v, ok := sc.Value("test_labeled_total", Label{"policy", `we"ird\pol`}); !ok || v != 1 {
		t.Errorf("escaped label roundtrip = %v, %v", v, ok)
	}
	if v, ok := sc.Value("test_status_total", Label{"code", "503"}); !ok || v != 1 {
		t.Errorf("test_status_total{code=503} = %v, %v", v, ok)
	}
	if v, ok := sc.Value("test_endpoint_seconds_count", Label{"endpoint", "/v1/sweep"}); !ok || v != 1 {
		t.Errorf("endpoint histogram count = %v, %v", v, ok)
	}
}

// TestHistogramBuckets pins the cumulative-bucket semantics: each bucket
// counts observations <= its bound, the +Inf bucket equals _count, and
// _sum is the exact observation sum.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "test", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 10.0} {
		h.Observe(v)
	}
	bounds, cum := h.Snapshot()
	wantBounds := []float64{1, 2, 5, math.Inf(+1)}
	wantCum := []int64{2, 4, 5, 6} // <=1: {0.5,1.0}; <=2: +{1.5,2.0}; <=5: +{3.0}; +Inf: +{10}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Fatalf("bucket %d: (%v, %d), want (%v, %d)", i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 18.0; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}

	// The same numbers must survive the text round trip.
	var b strings.Builder
	r.WriteTo(&b)
	sc, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bk := sc.Buckets("h_seconds")
	if len(bk) != 4 || bk[3].CumulativeCount != 6 || bk[1].CumulativeCount != 4 {
		t.Fatalf("parsed buckets = %+v", bk)
	}
	if v, ok := sc.Value("h_seconds_sum"); !ok || v != 18 {
		t.Errorf("parsed sum = %v, %v", v, ok)
	}
}

// TestQuantile pins the interpolation against hand-computed values.
func TestQuantile(t *testing.T) {
	buckets := []Bucket{
		{UpperBound: 1, CumulativeCount: 10},
		{UpperBound: 2, CumulativeCount: 30},
		{UpperBound: 4, CumulativeCount: 40},
		{UpperBound: math.Inf(+1), CumulativeCount: 40},
	}
	cases := []struct{ q, want float64 }{
		{0.25, 1}, // rank 10 is exactly the first bound
		{0.5, 1.5},
		{0.75, 2},
		{1.0, 4},
	}
	for _, c := range cases {
		if got := Quantile(c.q, buckets); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Overflow bucket holds the target: clamp to the highest finite bound.
	buckets[3].CumulativeCount = 100
	if got := Quantile(0.99, buckets); got != 4 {
		t.Errorf("overflow quantile = %v, want 4", got)
	}
	if !math.IsNaN(Quantile(0.5, nil)) {
		t.Error("empty buckets should be NaN")
	}
}

// TestConcurrentObserve hammers one histogram, one counter, one vec and
// one gauge from many goroutines while a scraper renders in a loop; run
// under -race this is the lock-free-soundness gate, and the final counts
// must be exact (no lost updates).
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("c_seconds", "t", []float64{0.001, 1})
	c := r.NewCounter("c_total", "t")
	cv := r.NewCounterVec("c_by_code", "t", "code")
	g := r.NewGauge("c_gauge", "t")

	const workers, per = 8, 5000
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() { // concurrent scraper: every mid-flight render must parse
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				r.WriteTo(&b)
				if _, err := Parse(strings.NewReader(b.String())); err != nil {
					t.Errorf("mid-flight exposition invalid: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			code := "200"
			if w%2 == 1 {
				code = "503"
			}
			child := cv.With(code)
			for i := 0; i < per; i++ {
				h.Observe(float64(i%3) * 0.75)
				c.Inc()
				child.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := cv.With("200").Value() + cv.With("503").Value(); got != workers*per {
		t.Errorf("vec total = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	_, cum := h.Snapshot()
	if cum[len(cum)-1] != int64(workers*per) {
		t.Errorf("+Inf bucket = %d, want %d", cum[len(cum)-1], workers*per)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "t")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "t")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	r.NewCounter("bad-name", "t")
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"# BOGUS foo bar",
		"# TYPE foo flute",
		`metric{label=unquoted} 1`,
		`metric{l="open 1`,
		"metric one",
		"0leading 1",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Parse accepted %q", line)
		}
	}
	good := "m_total{a=\"b\",c=\"d\"} 1 1700000000000\nplain 2.5\ninf_val +Inf\n"
	if _, err := Parse(strings.NewReader(good)); err != nil {
		t.Errorf("Parse rejected valid input: %v", err)
	}
}
