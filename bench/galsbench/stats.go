package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p95 needs at least 200 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and the number of
// samples strictly beyond it. It returns NaN for no samples.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return s[i], len(s) - 1 - i
}

// percentileValue reports xs's q-quantile under name, noting the sample
// count and flagging a tail percentile with fewer than minBeyond samples
// beyond it: such a run is too short to report that percentile.
func percentileValue(name string, xs []float64, q float64, unit string) value {
	v, beyond := percentile(xs, q)
	note := fmt.Sprintf("n=%d, %d beyond", len(xs), beyond)
	if q > 0.5 && beyond < minBeyond {
		note += "; too few samples beyond this percentile, lengthen the run"
	}
	return value{name: name, v: v, unit: unit, note: note}
}

// quartiles returns the three quartile cut points of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, exclusive one), so
// the spreads compare reports are the ones a Python reader computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
