package workload

import "math/rand"

// rng is math/rand's default source, the additive lagged-Fibonacci
// generator x[n] = x[n-607] + x[n-273] (mod 2⁶⁴), with the *rand.Rand
// methods the generator draws through. The Go 1 compatibility promise
// freezes math/rand's value stream, and every method here keeps its
// arithmetic exactly, so a trace is the one rand.New(rand.NewSource(seed))
// would produce. What changes is the cost: the draws are concrete calls
// that inline into the generator instead of going through the rand.Source
// interface.
type rng struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// newRNG returns the source math/rand seeds for seed. It takes rngLen
// draws from math/rand's own source, which writes each slot of the state
// exactly once, and then runs the recurrence backwards rngLen steps to
// recover the state those draws started from.
func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	r := &rng{tap: 0, feed: rngLen - rngTap}
	for range rngLen {
		r.tap = (r.tap + rngLen - 1) % rngLen
		r.feed = (r.feed + rngLen - 1) % rngLen
		r.vec[r.feed] = int64(src.Uint64())
	}
	for range rngLen {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap = (r.tap + 1) % rngLen
		r.feed = (r.feed + 1) % rngLen
	}
	return r
}

// Int63 is (*rand.Rand).Int63: a non-negative 63-bit integer.
func (r *rng) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & rngMask
}

// Float64 is (*rand.Rand).Float64: Go 1's Int63()/2⁶³, drawn again in the
// rare case that the division rounds up to 1.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is (*rand.Rand).Intn: Int31n's mask or rejection draw for n that
// fits 31 bits, Int63n's above.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(r.Int63n(int64(n)))
	}
	v := int32(r.Int63() >> 32)
	if n&(n-1) == 0 {
		return int(v & int32(n-1))
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	for v > max {
		v = int32(r.Int63() >> 32)
	}
	return int(v % int32(n))
}

// Int63n is (*rand.Rand).Int63n: a mask for a power of two, otherwise a
// rejection draw below the largest multiple of n.
func (r *rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}
