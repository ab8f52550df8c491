// Package clock models the clocking system of the adaptive GALS processor:
// one independent clock per domain, dynamic frequency changes with a PLL
// lock-time penalty, per-edge jitter, and the Sjogren-Myers synchronization
// circuit on every cross-domain communication path (paper Section 2).
//
// Simulation time is a global integer femtosecond timeline (timing.FS).
// Each domain's clock is a piecewise-uniform edge train: a sequence of
// epochs, each with a constant period, plus a small deterministic jitter on
// every edge. Frequency changes append a new epoch; the PLL model decides
// when the new epoch takes effect.
package clock

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"gals/internal/timing"
)

// Domain identifies one of the processor's clock domains (paper Figure 1).
type Domain int

const (
	// FrontEnd covers the L1 I-cache, branch predictor, rename, ROB and
	// dispatch.
	FrontEnd Domain = iota
	// Integer covers the integer issue queue, register file and units.
	Integer
	// FloatingPoint covers the FP issue queue, register file and units.
	FloatingPoint
	// LoadStore covers the load/store queue, L1 D-cache and L2 cache.
	LoadStore
	// Memory is the fixed-frequency external main memory interface.
	Memory
	// NumDomains is the number of clock domains.
	NumDomains = int(Memory) + 1
)

var domainNames = [NumDomains]string{"front-end", "integer", "floating-point", "load/store", "memory"}

// String returns the domain's name.
func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// SyncThreshold is the fraction of the faster clock's period within which
// two edges are considered "too close", forcing an extra consumer cycle of
// synchronization delay (Sjogren & Myers, as modeled by the MCD simulator).
const SyncThreshold = 0.3

// neverFast is a fastStart sentinel beyond any simulated time: assigning
// it disables the jitter-free inline fast paths (used when jitter is on).
const neverFast = timing.FS(1) << 62

// epoch is a run of uniform clock periods starting at a known edge. It
// carries its period's invariant-divisor constants, so the jitter-free edge
// queries never divide: an on-grid test is one multiply, a rotate and a
// compare, and a remainder is one multiply-high plus one correction step.
type epoch struct {
	start  timing.FS // time of edge 0 of this epoch
	period timing.FS
	base   uint64 // global edge index of edge 0 (for jitter hashing)
	// mag is floor((2^64-1)/period), the multiply-high reciprocal of
	// divmod.
	mag uint64
	// inv is the inverse modulo 2^64 of the period's odd part, and rot
	// minus the period's trailing zero count: period = odd << -rot, and
	// RotateLeft64(x, rot) rotates x right by -rot.
	inv uint64
	rot int
	// edges is floor((2^63-1)/period), the bound of onGrid's divisibility
	// test: the largest quotient of a multiple of period below 2^63.
	edges uint64
}

// newEpoch returns the epoch starting at start with the given period and
// base edge index, with its divisor constants computed once here (the only
// division on the jitter-free paths).
//
// mag: write period = p and mag = floor((2^64-1)/p). Then 2^64/p - 1 - 1/p
// < mag < 2^64/p, so for 0 <= d < 2^63 the product d*mag/2^64 lies within
// d*(1+1/p)/2^64 < 1 below d/p, and its floor, the high word of d*mag, is
// floor(d/p) or one less. divmod corrects that with a single step (Granlund
// & Montgomery, "Division by Invariant Integers using Multiplication", PLDI
// 1994).
//
// inv and rot: p = odd << shift with odd odd and rot = -shift. odd is a unit
// modulo 2^64; x = odd is its inverse to 3 bits (odd*odd = 1 mod 8), and
// each Newton step x *= 2 - odd*x doubles the correct bits: 3, 6, 12, 24,
// 48, 96 after five. A d in [0, 2^64) is a multiple of p exactly when
// rotr(d*inv, shift) <= floor((2^64-1)/p), and rotr(d*inv, shift) is then
// d/p (Hacker's Delight, 2nd ed., section 10-17). Bounding it by edges =
// floor((2^63-1)/p) instead also rejects every multiple of p at or above
// 2^63.
func newEpoch(start, period timing.FS, base uint64) epoch {
	p := uint64(period)
	shift := bits.TrailingZeros64(p)
	odd := p >> shift
	inv := odd
	for range 5 {
		inv *= 2 - odd*inv
	}
	return epoch{start: start, period: period, base: base, mag: math.MaxUint64 / p, inv: inv, rot: -shift, edges: math.MaxInt64 / p}
}

// onGrid reports whether d is a multiple of the period below 2^63.
func (e *epoch) onGrid(d uint64) bool {
	return bits.RotateLeft64(d*e.inv, e.rot) <= e.edges
}

// divmod returns d / period and d % period, exactly for 0 <= d < 2^63.
func (e *epoch) divmod(d uint64) (q, r uint64) {
	q, _ = bits.Mul64(d, e.mag)
	r = d - q*uint64(e.period)
	if r >= uint64(e.period) {
		q++
		r -= uint64(e.period)
	}
	return q, r
}

// edgeAtOrAfter returns the first edge of e's jitter-free grid at or after
// t, for t >= e.start.
func (e *epoch) edgeAtOrAfter(t timing.FS) timing.FS {
	d := uint64(t - e.start)
	if e.onGrid(d) {
		return t
	}
	_, r := e.divmod(d)
	return t + e.period - timing.FS(r)
}

// nextEdge returns the first edge of e's jitter-free grid strictly after
// t, for t >= e.start.
func (e *epoch) nextEdge(t timing.FS) timing.FS {
	d := uint64(t - e.start)
	if e.onGrid(d) {
		return t + e.period
	}
	_, r := e.divmod(d)
	return t + e.period - timing.FS(r)
}

// Clock is a single domain's clock. The zero value is not usable; use New.
type Clock struct {
	// final caches the final epoch (the one governing all future edges)
	// so the hot query paths never rescan the epoch slice: every call at
	// or after the last reconfiguration — the overwhelmingly common case —
	// is answered from it. fastStart equals final.start when jitter is
	// disabled and neverFast otherwise, folding the jitter test and the
	// epoch test into one comparison on the fast paths. The two lead the
	// struct so the fast paths read a single cache line.
	fastStart timing.FS
	final     epoch
	epochs    []epoch
	// jitterFrac is the peak-to-peak jitter as a fraction of the period
	// (0 disables jitter).
	jitterFrac float64
	seed       uint64
	// gen counts accepted reconfigurations; SyncPath uses it to detect
	// that its cached per-pair threshold went stale.
	gen uint64
}

// New creates a clock for domain d with the given initial period. seed
// makes the jitter deterministic per run; jitterFrac is the peak jitter as
// a fraction of the period (e.g. 0.01 for 1%).
func New(d Domain, period timing.FS, seed uint64, jitterFrac float64) *Clock {
	if period <= 0 {
		panic(fmt.Sprintf("clock: non-positive period %d", period))
	}
	if jitterFrac < 0 || jitterFrac > 0.05 {
		panic(fmt.Sprintf("clock: jitter fraction %v out of range [0, 0.05]", jitterFrac))
	}
	e := newEpoch(0, period, 0)
	c := &Clock{
		epochs:     []epoch{e},
		final:      e,
		jitterFrac: jitterFrac,
		seed:       seed ^ (uint64(d) * 0x9e3779b97f4a7c15),
	}
	if jitterFrac != 0 {
		c.fastStart = neverFast
	}
	return c
}

// Period returns the clock period in effect at time t.
func (c *Clock) Period(t timing.FS) timing.FS {
	return c.epochAt(t).period
}

// CurrentPeriod returns the period of the most recent epoch (the one that
// governs all future edges).
func (c *Clock) CurrentPeriod() timing.FS { return c.final.period }

// epochAt returns the epoch governing time t.
func (c *Clock) epochAt(t timing.FS) *epoch {
	if t >= c.final.start {
		return &c.final
	}
	return &c.epochs[c.epochIndexAt(t)]
}

// epochIndexAt returns the index of the epoch governing time t. Historical
// epochs are few (one per reconfiguration) and queries into them land in
// the last one or two, so it scans from the back.
func (c *Clock) epochIndexAt(t timing.FS) int {
	for i := len(c.epochs) - 1; i > 0; i-- {
		if c.epochs[i].start <= t {
			return i
		}
	}
	return 0
}

// jitter returns the deterministic jitter offset of global edge index n.
func (c *Clock) jitter(n uint64, period timing.FS) timing.FS {
	if c.jitterFrac == 0 {
		return 0
	}
	// splitmix64 hash of (seed, n): cheap, stateless, deterministic.
	z := c.seed + n*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Map to [-jitterFrac/2, +jitterFrac/2] of the period.
	frac := (float64(z>>11)/float64(1<<53) - 0.5) * c.jitterFrac
	return timing.FS(frac * float64(period))
}

// edgeTime returns the time of local edge n of epoch e. Edge 0 is the
// epoch's start itself, with no jitter of its own: the clock's first edge
// at time 0, or an edge of the previous epoch (SetPeriodAt places it with
// EdgeAtOrAfter) that already carries its jitter.
func (c *Clock) edgeTime(e *epoch, n uint64) timing.FS {
	t := e.start + timing.FS(n)*e.period
	if n == 0 {
		return t
	}
	return t + c.jitter(e.base+n, e.period)
}

// OnEdge reports whether t is an edge of a jitter-free clock's final epoch,
// at or after that epoch's start. Then EdgeAtOrAfter(t) is t, NextEdge(t) is
// t + CurrentPeriod() and After(t, n) is t + n*CurrentPeriod() for n >= 0, so
// a hot caller tests OnEdge inline, computes those sums itself and calls the
// methods only when it fails. It is one subtract, multiply, rotate and
// compare: a t before fastStart (a pre-lock time, or any time of a jittered
// clock, whose fastStart is neverFast) wraps to at least 2^63, which onGrid
// rejects with every off-grid time.
func (c *Clock) OnEdge(t timing.FS) bool {
	return c.final.onGrid(uint64(t - c.fastStart))
}

// EdgeAtOrAfter returns the time of the first clock edge at or after t.
// With jitter disabled (the default) this is division-free integer
// arithmetic: no hash, no probe loop, and — in the common case of t at or
// after the last reconfiguration — no epoch scan either. A t already on an
// edge costs only the on-grid test. Unlike NextEdge and After, it keeps the
// off-grid remainder in the same call: in a multiple-clock-domain run most
// of its queries land between edges, since its callers include every
// cross-domain Align.
func (c *Clock) EdgeAtOrAfter(t timing.FS) timing.FS {
	if t >= c.fastStart {
		return c.final.edgeAtOrAfter(t)
	}
	return c.edgeAtOrAfterRare(t)
}

// edgeAtOrAfterRare handles jittered clocks and jitter-free queries into
// historical epochs (between a reconfiguration decision and its PLL lock).
func (c *Clock) edgeAtOrAfterRare(t timing.FS) timing.FS {
	if c.jitterFrac != 0 {
		return c.edgeAtOrAfterSlow(t)
	}
	e := c.epochAt(t)
	if t <= e.start {
		return e.start
	}
	return e.edgeAtOrAfter(t)
}

// edgeAtOrAfterSlow is the jittered path: locate the governing epoch, then
// probe around the nominal edge index for the first jittered edge >= t.
func (c *Clock) edgeAtOrAfterSlow(t timing.FS) timing.FS {
	e := c.epochAt(t)
	if t <= e.start {
		return c.edgeTime(e, 0)
	}
	n := uint64((t - e.start) / e.period)
	// Jitter can move edges slightly in either direction; probe around the
	// nominal index for the first edge >= t.
	if n > 0 {
		n--
	}
	for {
		if et := c.edgeTime(e, n); et >= t {
			return et
		}
		n++
	}
}

// NextEdge returns the time of the first clock edge strictly after t. A t
// on an edge of the final epoch, as most are, costs only the on-grid test;
// every other t goes to nextEdgeRare.
func (c *Clock) NextEdge(t timing.FS) timing.FS {
	if c.OnEdge(t) {
		return t + c.final.period
	}
	return c.nextEdgeRare(t)
}

// nextEdgeRare is NextEdge for every t but an edge of the final jitter-free
// epoch. Off that grid, the next edge is the first at or after t. Each
// epoch starts on its predecessor's edge grid, so the next edge of the
// epoch governing t is the clock's next edge even across a boundary.
func (c *Clock) nextEdgeRare(t timing.FS) timing.FS {
	if t >= c.fastStart {
		return c.final.edgeAtOrAfter(t)
	}
	if c.jitterFrac != 0 {
		return c.edgeAtOrAfterSlow(t + 1)
	}
	e := c.epochAt(t)
	if t < e.start {
		return e.start
	}
	return e.nextEdge(t)
}

// After returns the time of the edge n cycles after the first edge at or
// after t. After(t, 0) == EdgeAtOrAfter(t). It is the primary primitive for
// charging an n-cycle latency that begins at time t. Negative n panics. A
// start on an edge of the final epoch, as most are, costs only the on-grid
// test; every other start goes to afterRare.
func (c *Clock) After(t timing.FS, n int) timing.FS {
	if n >= 0 && c.OnEdge(t) {
		return t + timing.FS(n)*c.final.period
	}
	return c.afterRare(t, n)
}

// afterRare is After for every start but an edge of the final jitter-free
// epoch: one multiply-high remainder off that grid, and otherwise negative
// n (panics), jittered clocks, and jitter-free starts inside historical
// epochs (between a reconfiguration decision and its PLL lock completion).
// The latter walk epoch boundaries analytically. Each epoch's start lies
// on its predecessor's edge grid (SetPeriodAt places it with
// EdgeAtOrAfter), so an epoch holds the n edges after tt exactly when
// tt+n*period reaches no further than the next epoch's start, and the
// cycles spent crossing an epoch are an exact quotient.
func (c *Clock) afterRare(t timing.FS, n int) timing.FS {
	if n >= 0 && t >= c.fastStart {
		return c.final.edgeAtOrAfter(t) + timing.FS(n)*c.final.period
	}
	if n < 0 {
		panic("clock: negative cycle count")
	}
	if c.jitterFrac != 0 {
		return c.afterSlow(t, n)
	}
	i := c.epochIndexAt(t)
	e := &c.epochs[i]
	tt := e.start
	if t > e.start {
		tt = e.edgeAtOrAfter(t)
	}
	for ; i < len(c.epochs)-1; i++ {
		next := c.epochs[i+1].start
		if end := tt + timing.FS(n)*e.period; end <= next {
			return end
		}
		k, _ := e.divmod(uint64(next - tt))
		n -= int(k)
		tt = next
		e = &c.epochs[i+1]
	}
	return tt + timing.FS(n)*e.period
}

// afterSlow is the jittered path of After.
func (c *Clock) afterSlow(t timing.FS, n int) timing.FS {
	tt := c.EdgeAtOrAfter(t)
	for n > 0 {
		if tt >= c.final.start {
			// Entirely inside the final epoch: jump analytically. The
			// index of tt within the epoch is recovered by rounding
			// (jitter is a small fraction of the period).
			k := uint64((tt - c.final.start + c.final.period/2) / c.final.period)
			return c.edgeTime(&c.final, k+uint64(n))
		}
		// Near a historical epoch boundary (rare: only right around a
		// reconfiguration): step edge by edge.
		tt = c.NextEdge(tt)
		n--
	}
	return tt
}

// SetPeriodAt schedules a new period that takes effect at the first edge at
// or after time t. Calls must be monotonically increasing in t; attempting
// to change history panics.
func (c *Clock) SetPeriodAt(t timing.FS, period timing.FS) {
	if period <= 0 {
		panic(fmt.Sprintf("clock: non-positive period %d", period))
	}
	last := c.final
	start := c.EdgeAtOrAfter(t)
	if start < last.start {
		panic(fmt.Sprintf("clock: period change at %d precedes epoch start %d", start, last.start))
	}
	if period == last.period {
		return
	}
	// elapsed = ceil((start - last.start) / last.period).
	elapsed := uint64(0)
	if start > last.start {
		q, r := last.divmod(uint64(start - last.start))
		elapsed = q
		if r != 0 {
			elapsed++
		}
	}
	c.final = newEpoch(start, period, last.base+elapsed)
	c.epochs = append(c.epochs, c.final)
	c.gen++
	if c.jitterFrac == 0 {
		c.fastStart = start
	}
}

// Align returns the first consumer edge at which a value produced at tp in
// the producer domain can be consumed, without a metastability penalty.
// This models queue-mediated domain crossings (dispatch into the issue
// queues, load/store queue insertion, ROB completion): the inter-domain
// FIFOs of the MCD design hide the synchronizer there, so only clock-edge
// alignment is paid (Semeraro et al., "Hiding Synchronization Delays in a
// GALS Processor Microarchitecture"). Same-domain transfers are free.
func Align(producer, consumer *Clock, tp timing.FS) timing.FS {
	if producer == consumer {
		return tp
	}
	return consumer.EdgeAtOrAfter(tp)
}

// Sync models the inter-domain synchronization circuit on direct (bypass)
// paths: a value produced in the producer domain at time tp becomes usable
// in the consumer domain at the returned time. If the consumer's sampling
// edge falls within SyncThreshold of the faster clock's period after tp, an
// extra consumer cycle is charged (paper Section 2). Same-domain transfers
// are free.
func Sync(producer, consumer *Clock, tp timing.FS) timing.FS {
	if producer == consumer {
		return tp
	}
	tc := consumer.EdgeAtOrAfter(tp)
	fast := producer.Period(tp)
	if cp := consumer.Period(tp); cp < fast {
		fast = cp
	}
	if float64(tc-tp) < SyncThreshold*float64(fast) {
		tc = consumer.NextEdge(tc)
	}
	return tc
}

// SyncPath is a memoized Sync for one fixed (producer, consumer) pair. The
// threshold comparison needs both clocks' periods at the transfer time; a
// plain Sync looks both up on every call, but between reconfigurations the
// answer never changes — and cross-domain transfers are hot enough
// (several per simulated instruction) that the paper's sweeps pay for it
// millions of times. The path caches SyncThreshold * min(period) and
// revalidates with one generation comparison per call, falling back to the
// exact Sync for queries into historical epochs (between a reconfiguration
// decision and its PLL lock) and for a jittered consumer.
//
// A SyncPath is NOT safe for concurrent use; give each simulation its own
// (machines already own their clocks).
type SyncPath struct {
	producer, consumer *Clock
	// gen is the sum of both clocks' reconfiguration counts at the last
	// refresh; both only ever increment, so any change invalidates.
	gen uint64
	// validFrom is the earliest time the cached threshold and the
	// consumer's final edge grid apply to: the later of the producer's
	// final-epoch start and the consumer's fastStart (which lies beyond
	// any simulated time when the consumer jitters).
	validFrom timing.FS
	// threshold is SyncThreshold * min(final periods), in femtoseconds.
	threshold float64
}

// NewSyncPath creates the memoized path from producer to consumer.
// Same-clock paths are the identity, as with Sync.
func NewSyncPath(producer, consumer *Clock) *SyncPath {
	p := &SyncPath{producer: producer, consumer: consumer}
	if producer != consumer {
		p.refresh()
	}
	return p
}

func (p *SyncPath) refresh() {
	p.gen = p.producer.gen + p.consumer.gen
	p.validFrom = max(p.producer.final.start, p.consumer.fastStart)
	fast := p.producer.final.period
	if cp := p.consumer.final.period; cp < fast {
		fast = cp
	}
	p.threshold = SyncThreshold * float64(fast)
}

// Sync is equivalent to Sync(producer, consumer, tp) with the period
// lookups amortized across calls between reconfigurations.
func (p *SyncPath) Sync(tp timing.FS) timing.FS {
	if p.producer == p.consumer {
		return tp
	}
	if p.producer.gen+p.consumer.gen != p.gen {
		p.refresh()
	}
	if tp < p.validFrom {
		// Transfer inside a historical epoch (only in the window between
		// a reconfiguration decision and its lock) or to a jittered
		// consumer: take the exact per-call path.
		return Sync(p.producer, p.consumer, tp)
	}
	// tc is an edge of the consumer's final grid, so its next edge is one
	// period on.
	final := &p.consumer.final
	tc := final.edgeAtOrAfter(tp)
	if float64(tc-tp) < p.threshold {
		tc += final.period
	}
	return tc
}

// PLL models the per-domain frequency synthesizer. Lock times are normally
// distributed with mean 15us, clipped to [10us, 20us] (paper Section 2),
// drawn from a deterministic per-run source.
type PLL struct {
	rng *rand.Rand
}

// PLL lock-time distribution parameters.
const (
	// PLLLockMean is the mean PLL lock time.
	PLLLockMean = 15 * timing.FemtosPerMicro
	// PLLLockMin and PLLLockMax clip the distribution's range.
	PLLLockMin = 10 * timing.FemtosPerMicro
	// PLLLockMax is the maximum lock time.
	PLLLockMax = 20 * timing.FemtosPerMicro
	// pllLockStdDev makes ~99.7% of the mass fall inside the clip range.
	pllLockStdDev = float64(PLLLockMax-PLLLockMean) / 3
)

// NewPLL creates a PLL lock-time source with a deterministic seed.
func NewPLL(seed int64) *PLL {
	return &PLL{rng: rand.New(rand.NewSource(seed))}
}

// LockTime draws one lock duration.
func (p *PLL) LockTime() timing.FS {
	d := timing.FS(p.rng.NormFloat64()*pllLockStdDev) + PLLLockMean
	if d < PLLLockMin {
		d = PLLLockMin
	}
	if d > PLLLockMax {
		d = PLLLockMax
	}
	return d
}
