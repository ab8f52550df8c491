package workload

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds is the seed of every benchmark in the suite plus the edges of
// math/rand's seed reduction (seed mod 2³¹−1, with 0 remapped).
func rngSeeds() []int64 {
	seeds := []int64{0, -1, math.MinInt64, math.MaxInt64}
	for _, s := range Suite() {
		seeds = append(seeds, s.Seed)
	}
	return seeds
}

// TestRNGMatchesMathRand checks the concrete source draw for draw against
// rand.New(rand.NewSource(seed)) through every method the generator uses:
// Float64, Intn on the mask path (n = 1 and powers of two), on the
// rejection path (n = 2ᵏ+1, up to half the draws rejected at k = 30) and on
// the Int63n path (n > 2³¹−1), and Int63n at 2⁶²+1, where about half the
// draws are rejected.
func TestRNGMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 1024, 1 << 30, 3, 1<<10 + 1, 1<<20 + 1, 1<<30 + 1,
		1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 1, 1<<62 + 1, math.MaxInt}
	int63ns := []int64{1, 1 << 40, 5, 1<<62 + 1, math.MaxInt64}
	for _, seed := range rngSeeds() {
		got, want := newRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, round %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, round %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
			for _, n := range intns {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d, round %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
				}
			}
			for _, n := range int63ns {
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d, round %d: Int63n(%d) = %d, math/rand %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestRNGFloat64SkipsOne forces the draw whose quotient rounds up to 1.0:
// Float64 must discard it and return the next draw, as math/rand does.
func TestRNGFloat64SkipsOne(t *testing.T) {
	r := newRNG(7)
	tap, feed := (r.tap+rngLen-1)%rngLen, (r.feed+rngLen-1)%rngLen
	r.vec[feed] = math.MaxInt64 - r.vec[tap]
	next := *r
	if v := next.Int63(); float64(v)/(1<<63) != 1 {
		t.Fatalf("forced draw %d does not round to 1", v)
	}
	want := float64(next.Int63()) / (1 << 63)
	if got := r.Float64(); got != want {
		t.Errorf("Float64 = %v, want the following draw %v", got, want)
	}
}

func TestRNGRejectsNonPositiveBounds(t *testing.T) {
	for name, draw := range map[string]func(*rng){
		"Intn(0)":    func(r *rng) { r.Intn(0) },
		"Intn(-1)":   func(r *rng) { r.Intn(-1) },
		"Int63n(0)":  func(r *rng) { r.Int63n(0) },
		"Int63n(-1)": func(r *rng) { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			draw(newRNG(1))
		}()
	}
}
