package main

import (
	"math"
	"testing"
	"time"
)

// TestEndToEndScalesBySlowdown checks that each segment's host times are
// divided by its slowdown and its rates multiplied, so that a segment run
// at half speed reports what the baseline host would.
func TestEndToEndScalesBySlowdown(t *testing.T) {
	run := func(lat time.Duration) sample {
		return sample{opResult{class: "gcc", cells: 1, insts: 1_000_000, isRun: true}, lat}
	}
	segs := []segment{
		{window{[]sample{run(100 * time.Millisecond), run(100 * time.Millisecond)}, 200 * time.Millisecond}, 1},
		{window{[]sample{run(200 * time.Millisecond), run(200 * time.Millisecond)}, 400 * time.Millisecond}, 2},
	}
	vals, extras := endToEndValues(segs, 0.5, 5, []float64{8})
	got := map[string]float64{}
	for _, v := range append(vals, extras...) {
		got[v.name] = v.v
	}
	for name, want := range map[string]float64{
		"sim_minst_per_s":     10, // 4 Minst in 0.4 s at the baseline's speed
		"cells_per_s":         10,
		"req_per_s":           10,
		"run_ms_p50":          100,
		"setup_s":             0.5,
		"mem_mb_p50":          8,
		"host_slowdown":       1.5,
		"raw_sim_minst_per_s": 4 / 0.6,
		"raw_run_ms_p50":      100,
	} {
		if math.Abs(got[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestRefKernelSlowdown runs the reference on each number of goroutines it
// supports; a slowdown is a positive, finite ratio.
func TestRefKernelSlowdown(t *testing.T) {
	ref, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for n := 1; n < len(refNominal); n++ {
		if s := ref.slowdown(n); !(s > 0) || math.IsInf(s, 0) {
			t.Errorf("slowdown on %d goroutines = %v", n, s)
		}
	}
}
