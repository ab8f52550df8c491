package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n, q100    int
		want       float64
		beyond     int
		tooFew     bool
		wantInNote string
	}{
		{n: 200, q100: 95, want: 190, beyond: 10, wantInNote: "n=200, 10 beyond"},
		{n: 199, q100: 95, want: 190, beyond: 9, tooFew: true, wantInNote: "n=199, 9 beyond"},
		{n: 1000, q100: 99, want: 990, beyond: 10, wantInNote: "n=1000, 10 beyond"},
		{n: 999, q100: 99, want: 990, beyond: 9, tooFew: true},
		// A median is reported with its count however few samples there are.
		{n: 7, q100: 50, want: 4, beyond: 3, wantInNote: "n=7, 3 beyond"},
	} {
		q := float64(tc.q100) / 100
		v, beyond := percentile(seq(tc.n), q)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%d of 1..%d = %v with %d beyond, want %v with %d", tc.q100, tc.n, v, beyond, tc.want, tc.beyond)
		}
		note := percentileValue("x", seq(tc.n), q, "ms").note
		if got := strings.Contains(note, "lengthen the run"); got != tc.tooFew {
			t.Errorf("p%d of %d samples: note %q, want too-few flag %v", tc.q100, tc.n, note, tc.tooFew)
		}
		if !strings.Contains(note, tc.wantInNote) {
			t.Errorf("p%d of %d samples: note %q lacks %q", tc.q100, tc.n, note, tc.wantInNote)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
