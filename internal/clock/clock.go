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

// epoch is a run of uniform clock periods starting at a known edge.
type epoch struct {
	start  timing.FS // time of edge 0 of this epoch
	period timing.FS
	base   uint64 // global edge index of edge 0 (for jitter hashing)
}

// Clock is a single domain's clock. The zero value is not usable; use New.
type Clock struct {
	domain Domain
	epochs []epoch
	// finalStart/finalPeriod/finalBase cache the final epoch (the one
	// governing all future edges) so the hot query paths never rescan the
	// epoch slice: every call at or after the last reconfiguration — the
	// overwhelmingly common case — is answered from these scalars.
	// fastStart equals finalStart when jitter is disabled and neverFast
	// otherwise, folding the jitter test and the epoch test into one
	// comparison on the fast paths.
	fastStart   timing.FS
	finalStart  timing.FS
	finalPeriod timing.FS
	finalBase   uint64
	// finalInv is 1/finalPeriod: the fast paths turn their period modulo
	// into a float multiply plus an exact integer correction (finalRem).
	// This is not a measured win: in a dependent-chain microbenchmark on a
	// 2-vCPU x86-64 host the reciprocal remainder took ~9.0 ns per step
	// and a plain % ~4.8 ns.
	finalInv float64
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
	c := &Clock{
		domain:      d,
		epochs:      []epoch{{start: 0, period: period, base: 0}},
		finalStart:  0,
		finalPeriod: period,
		finalBase:   0,
		jitterFrac:  jitterFrac,
		seed:        seed ^ (uint64(d) * 0x9e3779b97f4a7c15),
	}
	if jitterFrac != 0 {
		c.fastStart = neverFast
	}
	c.finalInv = 1 / float64(period)
	return c
}

// finalRem returns d mod finalPeriod (for d >= 0) via the precomputed
// reciprocal. The float quotient can be off by a few ulps, so the result is
// corrected back into [0, period) with cheap, well-predicted loops.
func (c *Clock) finalRem(d timing.FS) timing.FS {
	q := timing.FS(float64(d) * c.finalInv)
	r := d - q*c.finalPeriod
	for r < 0 {
		r += c.finalPeriod
	}
	for r >= c.finalPeriod {
		r -= c.finalPeriod
	}
	return r
}

// Domain returns the domain this clock drives.
func (c *Clock) Domain() Domain { return c.domain }

// Period returns the clock period in effect at time t.
func (c *Clock) Period(t timing.FS) timing.FS {
	if t >= c.finalStart {
		return c.finalPeriod
	}
	return c.epochAt(t).period
}

// CurrentPeriod returns the period of the most recent epoch (the one that
// governs all future edges).
func (c *Clock) CurrentPeriod() timing.FS { return c.finalPeriod }

// epochAt returns the epoch governing time t.
func (c *Clock) epochAt(t timing.FS) epoch {
	if t >= c.finalStart {
		return epoch{start: c.finalStart, period: c.finalPeriod, base: c.finalBase}
	}
	// Historical epochs are few (one per reconfiguration); scan from the
	// back. Index len-1 is the final epoch, already excluded above.
	for i := len(c.epochs) - 2; i > 0; i-- {
		if c.epochs[i].start <= t {
			return c.epochs[i]
		}
	}
	return c.epochs[0]
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

// edgeTime returns the time of local edge n of epoch e.
func (c *Clock) edgeTime(e epoch, n uint64) timing.FS {
	t := e.start + timing.FS(n)*e.period
	return t + c.jitter(e.base+n, e.period)
}

// EdgeAtOrAfter returns the time of the first clock edge at or after t.
// With jitter disabled (the default) this is pure integer arithmetic: no
// hash, no probe loop, and — in the common case of t at or after the last
// reconfiguration — no epoch scan either. It does not inline: the
// compiler (go build -gcflags=-m=2) costs it at 128 against the budget of
// 80, and NextEdge and After at 119 and 139.
func (c *Clock) EdgeAtOrAfter(t timing.FS) timing.FS {
	if t >= c.fastStart {
		if r := c.finalRem(t - c.fastStart); r != 0 {
			return t + c.finalPeriod - r
		}
		return t
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
	if r := (t - e.start) % e.period; r != 0 {
		return t + e.period - r
	}
	return t
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

// NextEdge returns the time of the first clock edge strictly after t.
func (c *Clock) NextEdge(t timing.FS) timing.FS {
	if t >= c.fastStart {
		return t + c.finalPeriod - c.finalRem(t-c.fastStart)
	}
	return c.edgeAtOrAfterRare(t + 1)
}

// After returns the time of the edge n cycles after the first edge at or
// after t. After(t, 0) == EdgeAtOrAfter(t). It is the primary primitive for
// charging an n-cycle latency that begins at time t. Negative n panics.
func (c *Clock) After(t timing.FS, n int) timing.FS {
	if t >= c.fastStart && n >= 0 {
		r := c.finalRem(t - c.fastStart)
		if r != 0 {
			r = c.finalPeriod - r
		}
		return t + r + timing.FS(n)*c.finalPeriod
	}
	return c.afterRare(t, n)
}

// afterRare handles negative n (panics), jittered clocks, and jitter-free
// starts inside historical epochs.
func (c *Clock) afterRare(t timing.FS, n int) timing.FS {
	if n < 0 {
		panic("clock: negative cycle count")
	}
	if c.jitterFrac != 0 {
		return c.afterSlow(t, n)
	}
	return c.afterHistorical(t, n)
}

// afterHistorical charges n jitter-free cycles starting inside a historical
// epoch (between a reconfiguration decision and its PLL lock completion),
// walking epoch boundaries analytically. Each epoch's start lies on its
// predecessor's edge grid (SetPeriodAt places it with EdgeAtOrAfter), so
// the per-epoch cycle count is an exact division.
func (c *Clock) afterHistorical(t timing.FS, n int) timing.FS {
	i := c.epochIndexAt(t)
	e := c.epochs[i]
	tt := e.start
	if t > e.start {
		tt = t
		if r := (t - e.start) % e.period; r != 0 {
			tt += e.period - r
		}
	}
	for n > 0 && i < len(c.epochs)-1 {
		next := c.epochs[i+1].start
		k := int((next - tt) / c.epochs[i].period)
		if n <= k {
			return tt + timing.FS(n)*c.epochs[i].period
		}
		n -= k
		tt = next
		i++
	}
	return tt + timing.FS(n)*c.epochs[i].period
}

// epochIndexAt returns the index of the epoch governing time t.
func (c *Clock) epochIndexAt(t timing.FS) int {
	for i := len(c.epochs) - 1; i > 0; i-- {
		if c.epochs[i].start <= t {
			return i
		}
	}
	return 0
}

// afterSlow is the jittered path of After.
func (c *Clock) afterSlow(t timing.FS, n int) timing.FS {
	tt := c.EdgeAtOrAfter(t)
	for n > 0 {
		if tt >= c.finalStart {
			// Entirely inside the final epoch: jump analytically. The
			// index of tt within the epoch is recovered by rounding
			// (jitter is a small fraction of the period).
			k := uint64((tt - c.finalStart + c.finalPeriod/2) / c.finalPeriod)
			e := epoch{start: c.finalStart, period: c.finalPeriod, base: c.finalBase}
			return c.edgeTime(e, k+uint64(n))
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
	last := c.epochs[len(c.epochs)-1]
	start := c.EdgeAtOrAfter(t)
	if start < last.start {
		panic(fmt.Sprintf("clock: period change at %d precedes epoch start %d", start, last.start))
	}
	if period == last.period {
		return
	}
	elapsed := uint64(0)
	if start > last.start {
		elapsed = uint64((start - last.start + last.period - 1) / last.period)
	}
	c.epochs = append(c.epochs, epoch{start: start, period: period, base: last.base + elapsed})
	c.finalStart = start
	c.finalPeriod = period
	c.finalBase = last.base + elapsed
	c.finalInv = 1 / float64(period)
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
// decision and its PLL lock).
//
// A SyncPath is NOT safe for concurrent use; give each simulation its own
// (machines already own their clocks).
type SyncPath struct {
	producer, consumer *Clock
	// gen is the sum of both clocks' reconfiguration counts at the last
	// refresh; both only ever increment, so any change invalidates.
	gen uint64
	// validFrom is the earliest time the cached threshold applies to
	// (the later of the two final-epoch starts).
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
	p.validFrom = p.producer.finalStart
	if p.consumer.finalStart > p.validFrom {
		p.validFrom = p.consumer.finalStart
	}
	fast := p.producer.finalPeriod
	if cp := p.consumer.finalPeriod; cp < fast {
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
		// Transfer inside a historical epoch: rare (only in the window
		// between a reconfiguration decision and its lock), so take the
		// exact per-call path.
		return Sync(p.producer, p.consumer, tp)
	}
	tc := p.consumer.EdgeAtOrAfter(tp)
	if float64(tc-tp) < p.threshold {
		tc = p.consumer.NextEdge(tc)
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
