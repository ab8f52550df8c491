// Intra-run parallel execution: one simulated machine decomposed into a
// software pipeline of up to three stages connected by single-producer/
// single-consumer rings, producing results bit-identical to Machine.Run.
//
// The decomposition leans on the Accounting Cache's defining property
// (paper Section 3.1): MRU state evolution is configuration independent.
// The functional stage (functional.go) performs every cache update,
// tracker step and predictor update and ships only the outcomes: MRU
// positions, prediction bits and tracker fires. It can therefore run
// arbitrarily far ahead of the timing stage — it never needs to know the
// configuration in force when the access is eventually timed. The timing
// stage classifies shipped positions under *shadow* configurations that
// replicate, in exact commit order, every Configure call the sequential
// machine would have made, and tallies them into its own interval
// histograms, so accounting-interval decisions need no traffic back to the
// functional stage. The streamed machine (stream.go) drives the same
// timing-stage access points from a recording's stored functional stream.
//
// Stage assignment by degree (requested degrees above 3 clamp to 3 — the
// pipeline has no fourth stage to split out):
//
//	degree 2:  [generate + functional] → [timing]
//	degree 3:  [generate] → [functional] → [timing]
//
// The timing stage is the caller's goroutine running the ordinary step()
// loop with m.par-gated access points; it owns everything else: clocks,
// windows, functional-unit pools, the controller, PLL draws and all of
// Stats. One copy of the timing logic serves every mode. Shipped sentinel
// positions are defensive: consuming one panics, turning any violation of
// the functional stage's next-level access rule (funcStage.miss) into a
// loud failure instead of a silent divergence.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/cache"
	"gals/internal/isa"
	"gals/internal/queue"
	"gals/internal/workload"
)

// maxParallelDegree is the deepest stage decomposition the machine supports.
const maxParallelDegree = 3

// MaxParallelDegree is the deepest stage decomposition RunWith
// supports — the largest value ParallelDegree can return. Callers sizing a
// degree cap from external capacity (pool slots, CPU budget) can pass it
// as the "no cap" upper bound.
const MaxParallelDegree = maxParallelDegree

// ParallelDegree resolves a requested intra-run parallelism degree: values
// above the pipeline depth clamp to maxParallelDegree, and a requested
// degree <= 0 means "auto" — use the host's CPU count (clamped the same
// way). RunWith itself performs no CPU-count clamping, so an explicit
// degree exercises the full parallel machinery even on a single-core host.
func ParallelDegree(requested int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	if requested > maxParallelDegree {
		requested = maxParallelDegree
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

const (
	// parRingCap is the instruction-record ring capacity: the functional
	// stage's maximum lead over the timing stage, in instructions.
	parRingCap = 4096
	// parRingBatch is how many slots a ring cursor advances before it is
	// published; batching keeps the per-instruction atomic traffic amortized.
	parRingBatch = 64
)

// parRec is one instruction in flight between the functional and timing
// stages: the decoded instruction and its functional outcome.
type parRec struct {
	in isa.Inst
	funcOut
}

// parStats is one accounting-interval snapshot of the three caches.
type parStats struct {
	i, d, l2 cache.Stats
}

// parIdle backs a ring wait: yield the processor so the peer stage can run
// (essential when hardware parallelism is scarce), falling back to a short
// sleep once yielding has clearly not helped.
func parIdle(spin int) {
	if spin < 256 {
		runtime.Gosched()
	} else {
		time.Sleep(5 * time.Microsecond)
	}
}

// spscRing is a bounded single-producer/single-consumer ring with batched
// cursor publication. Slot data is written before the head store and read
// before the tail store, so the atomic cursors carry the happens-before
// edges; both sides keep cached copies of the remote cursor and touch the
// shared line only when the cache runs out. Waits are abortable.
type spscRing[T any] struct {
	buf   []T
	mask  int64
	abort *atomic.Bool
	// onProdWait / onConsWait run once when the respective side starts
	// waiting: the hook where a stage flushes its *other* rings so the peer
	// it is waiting on can make progress (deadlock freedom).
	onProdWait func()
	onConsWait func()

	_    [64]byte
	head atomic.Int64 // producer: slots below head are published
	_    [64]byte
	tail atomic.Int64 // consumer: slots below tail are released
	_    [64]byte

	pHead, pPub, cachedTail int64 // producer-local
	cTail, cPub, cachedHead int64 // consumer-local
}

func newRing[T any](capacity int, abort *atomic.Bool) *spscRing[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("core: ring capacity %d not a positive power of two", capacity))
	}
	return &spscRing[T]{buf: make([]T, capacity), mask: int64(capacity - 1), abort: abort}
}

// reserve returns the next slot to fill, waiting for space if the ring is
// full. Returns false only on abort.
func (r *spscRing[T]) reserve() (*T, bool) {
	if r.pHead-r.cachedTail >= int64(len(r.buf)) {
		r.cachedTail = r.tail.Load()
		if r.pHead-r.cachedTail >= int64(len(r.buf)) {
			r.flushProducer() // the consumer may be starved of these
			if r.onProdWait != nil {
				r.onProdWait()
			}
			for spin := 0; ; spin++ {
				if r.abort.Load() {
					return nil, false
				}
				r.cachedTail = r.tail.Load()
				if r.pHead-r.cachedTail < int64(len(r.buf)) {
					break
				}
				parIdle(spin)
			}
		}
	}
	return &r.buf[r.pHead&r.mask], true
}

// advance publishes the slot returned by reserve, batched.
func (r *spscRing[T]) advance() {
	r.pHead++
	if r.pHead-r.pPub >= parRingBatch {
		r.head.Store(r.pHead)
		r.pPub = r.pHead
	}
}

// flushProducer publishes every reserved-and-advanced slot immediately.
func (r *spscRing[T]) flushProducer() {
	if r.pHead != r.pPub {
		r.head.Store(r.pHead)
		r.pPub = r.pHead
	}
}

// next returns the oldest unconsumed slot, waiting for data if the ring is
// empty. Returns false only on abort.
func (r *spscRing[T]) next() (*T, bool) {
	if r.cTail == r.cachedHead {
		r.cachedHead = r.head.Load()
		if r.cTail == r.cachedHead {
			r.flushConsumer() // the producer may be starved of space
			if r.onConsWait != nil {
				r.onConsWait()
			}
			for spin := 0; ; spin++ {
				if r.abort.Load() {
					return nil, false
				}
				r.cachedHead = r.head.Load()
				if r.cTail != r.cachedHead {
					break
				}
				parIdle(spin)
			}
		}
	}
	return &r.buf[r.cTail&r.mask], true
}

// release frees the slot returned by next, batched.
func (r *spscRing[T]) release() {
	r.cTail++
	if r.cTail-r.cPub >= parRingBatch {
		r.tail.Store(r.cTail)
		r.cPub = r.cTail
	}
}

// flushConsumer releases every consumed slot immediately.
func (r *spscRing[T]) flushConsumer() {
	if r.cTail != r.cPub {
		r.tail.Store(r.cTail)
		r.cPub = r.cTail
	}
}

// push appends one value with immediate publication (low-rate rings).
func (r *spscRing[T]) push(v T) bool {
	s, ok := r.reserve()
	if !ok {
		return false
	}
	*s = v
	r.advance()
	r.flushProducer()
	return true
}

// pop removes one value with immediate release (low-rate rings).
func (r *spscRing[T]) pop() (T, bool) {
	var zero T
	s, ok := r.next()
	if !ok {
		return zero, false
	}
	v := *s
	r.release()
	r.flushConsumer()
	return v, true
}

// parAbort unwinds the timing stage's step loop when the run is torn down
// mid-flight (context cancellation or a worker panic); runParallel recovers
// it at the loop boundary.
type parAbort struct{}

// parState is the timing stage's view of a run whose functional work
// happens elsewhere: on a pipeline stage (ring mode) or in a recording's
// functional stream (stream mode, fs != nil). It is hung off Machine.par;
// a nil par means the fused sequential loop, and every gate in step()
// compiles to one predictable branch.
type parState struct {
	abort atomic.Bool

	recs    *spscRing[parRec]          // functional → timing: instructions
	gen     *spscRing[isa.Inst]        // generate → functional (degree 3)
	samples *spscRing[[4]queue.Sample] // functional → timing: tracker fires

	// cur is the record the timing stage is currently executing (ring
	// mode); fs is the stream cursor (stream mode).
	cur *parRec
	fs  *streamCursor

	// Shadow configurations: the timing stage's view of the three caches'
	// partitioning, updated wherever the sequential machine would call
	// Configure. The cache objects themselves belong to the functional
	// stage for the duration of the run, or sit unused while a stream
	// stands in for them.
	iWaysA, dWaysA, l2WaysA int
	iB, dB, l2B             bool
	iWays, dWays, l2Ways    int // physical way counts (the forcing rule)

	// hist holds the interval statistics of the I-cache, D-cache and L2,
	// tallied from the positions the timing stage consumes.
	hist [3]cache.Stats

	wg      sync.WaitGroup
	panicMu sync.Mutex
	panics  []any
}

// Indices into parState.hist.
const (
	histI = iota
	histD
	histL2
)

// newParState captures the caches' partitioning and interval statistics:
// from here until foldPar the timing stage keeps both.
func (m *Machine) newParState() *parState {
	p := &parState{}
	p.iWays, p.iWaysA, p.iB = m.icache.Geometry().Ways, m.icache.WaysA(), m.icache.BEnabled()
	p.dWays, p.dWaysA, p.dB = m.dcache.Geometry().Ways, m.dcache.WaysA(), m.dcache.BEnabled()
	p.l2Ways, p.l2WaysA, p.l2B = m.l2.Geometry().Ways, m.l2.WaysA(), m.l2.BEnabled()
	p.hist = [3]cache.Stats{m.icache.Stats(), m.dcache.Stats(), m.l2.Stats()}
	return p
}

// foldPar hands the timing stage's shadow configurations and interval
// statistics back to the cache objects and detaches p, so the machine
// continues exactly as a sequential run would.
func (m *Machine) foldPar(p *parState) {
	m.par = nil
	m.icache.Configure(p.iWaysA, p.iB)
	m.dcache.Configure(p.dWaysA, p.dB)
	m.l2.Configure(p.l2WaysA, p.l2B)
	m.icache.SetStats(p.hist[histI])
	m.dcache.SetStats(p.hist[histD])
	m.l2.SetStats(p.hist[histL2])
}

// setI mirrors icache.Configure onto the shadow, including the validation
// panic and the waysA==Ways forcing rule.
func (p *parState) setI(waysA int, b bool) {
	if waysA < 1 || waysA > p.iWays {
		panic(fmt.Sprintf("cache L1I: A partition %d ways out of range 1..%d", waysA, p.iWays))
	}
	if waysA == p.iWays {
		b = false
	}
	p.iWaysA, p.iB = waysA, b
}

// setD mirrors the paired dcache.Configure / l2.Configure onto the shadows.
func (p *parState) setD(waysA int, b bool) {
	if waysA < 1 || waysA > p.dWays {
		panic(fmt.Sprintf("cache L1D: A partition %d ways out of range 1..%d", waysA, p.dWays))
	}
	db := b
	if waysA == p.dWays {
		db = false
	}
	p.dWaysA, p.dB = waysA, db
	if waysA < 1 || waysA > p.l2Ways {
		panic(fmt.Sprintf("cache L2: A partition %d ways out of range 1..%d", waysA, p.l2Ways))
	}
	lb := b
	if waysA == p.l2Ways {
		lb = false
	}
	p.l2WaysA, p.l2B = waysA, lb
}

// class tallies one consumed access code into its interval histogram and
// classifies it under a shadow configuration.
func (p *parState) class(code int8, h int, waysA int, b bool) cache.Class {
	if code == parNoAccess {
		panic("core: functional/timing desync: cache class consumed with no recorded access")
	}
	tally(&p.hist[h], code)
	return cache.ClassifyPos(int(code), waysA, b)
}

// classI classifies the instruction's I-cache access.
func (p *parState) classI() cache.Class {
	var code int8
	if s := p.fs; s != nil {
		code = s.nextI()
	} else {
		code = p.cur.iPos
	}
	return p.class(code, histI, p.iWaysA, p.iB)
}

// classD classifies the instruction's D-cache access.
func (p *parState) classD() cache.Class {
	var code int8
	if s := p.fs; s != nil {
		code = s.nextD()
	} else {
		code = p.cur.dPos
	}
	return p.class(code, histD, p.dWaysA, p.dB)
}

// classL2I classifies the L2 access of the instruction's I-side line fill.
func (p *parState) classL2I() cache.Class {
	var code int8
	if s := p.fs; s != nil {
		code = s.nextL2()
	} else {
		code = p.cur.iL2
	}
	return p.class(code, histL2, p.l2WaysA, p.l2B)
}

// classL2D classifies the L2 access of the instruction's D-side line fill.
func (p *parState) classL2D() cache.Class {
	var code int8
	if s := p.fs; s != nil {
		code = s.nextL2()
	} else {
		code = p.cur.dL2
	}
	return p.class(code, histL2, p.l2WaysA, p.l2B)
}

// predicted returns the branch prediction of the predictor geometry with
// index geom.
func (p *parState) predicted(geom int) bool {
	var bits uint8
	if s := p.fs; s != nil {
		bits = s.nextPred()
	} else {
		bits = p.cur.pred
	}
	return bits>>geom&1 != 0
}

// fired reports whether the ILP tracker completed an interval at the
// instruction with 0-based index count.
func (p *parState) fired(count int64) bool {
	if s := p.fs; s != nil {
		return s.fireAt == count
	}
	return p.cur.fire
}

// intervalStats hands the accounting-interval statistics to a decision
// and starts the next interval.
func (p *parState) intervalStats() parStats {
	st := parStats{i: p.hist[histI].Clone(), d: p.hist[histD].Clone(), l2: p.hist[histL2].Clone()}
	for i := range p.hist {
		p.hist[i].Reset()
	}
	return st
}

// guard runs one worker stage, converting a panic into an abort that the
// other stages (and the caller) observe.
func (p *parState) guard(f func()) {
	defer func() {
		if e := recover(); e != nil {
			p.panicMu.Lock()
			p.panics = append(p.panics, e)
			p.panicMu.Unlock()
			p.abort.Store(true)
		}
		p.wg.Done()
	}()
	f()
}

// startParallel builds the rings and launches the worker stages. The
// caller's goroutine becomes the timing stage.
func (m *Machine) startParallel(n int64, degree int) *parState {
	p := m.newParState()
	p.recs = newRing[parRec](parRingCap, &p.abort)
	p.samples = newRing[[4]queue.Sample](2048, &p.abort)

	// Before the functional stage blocks on any secondary ring it must
	// publish its produced instruction records — they are what lets the
	// timing stage reach the point that unblocks it.
	flushRecs := p.recs.flushProducer
	p.samples.onProdWait = flushRecs

	m.par = p
	if degree >= 3 {
		p.gen = newRing[isa.Inst](parRingCap, &p.abort)
		p.gen.onConsWait = flushRecs
		p.wg.Add(1)
		go p.guard(func() { m.genLoop(p, n) })
	}
	f := m.newFuncStage()
	p.wg.Add(1)
	go p.guard(func() { m.funcLoop(p, &f, n) })
	return p
}

// genLoop is the generate stage: it drives the instruction source.
func (m *Machine) genLoop(p *parState, n int64) {
	g := p.gen
	for i := int64(0); i < n; i++ {
		if p.abort.Load() {
			return
		}
		slot, ok := g.reserve()
		if !ok {
			return
		}
		m.trace.Next(slot)
		g.advance()
	}
	g.flushProducer()
}

// funcLoop is the functional stage: it runs f over the instruction stream
// in exact order, shipping each outcome and the tracker's samples to the
// timing stage.
func (m *Machine) funcLoop(p *parState, f *funcStage, n int64) {
	for count := int64(1); count <= n; count++ {
		if p.abort.Load() {
			return
		}
		rec, ok := p.recs.reserve()
		if !ok {
			return
		}
		if p.gen != nil {
			src, ok := p.gen.next()
			if !ok {
				return
			}
			rec.in = *src
			p.gen.release()
		} else {
			m.trace.Next(&rec.in)
		}
		f.step(&rec.in, &rec.funcOut)
		if rec.fire && !p.samples.push(f.samples) {
			return
		}
		p.recs.advance()
	}
	p.recs.flushProducer()
}

// popSamples hands the timing stage the tracker samples for a fired
// interval; called from step() at the firing instruction's rename.
func (p *parState) popSamples() [4]queue.Sample {
	if s := p.fs; s != nil {
		return s.popSamples()
	}
	s, ok := p.samples.pop()
	if !ok {
		panic(parAbort{})
	}
	return s
}

// runParallel is RunWith at degree 2 or 3: it drives the timing stage on
// the caller's goroutine (polling ctx, nil for never, like the sequential
// path) and joins the worker stages before returning. On cancellation the
// pipeline is torn down and ctx.Err() returned.
func (m *Machine) runParallel(ctx context.Context, n int64, degree int) (*Result, error) {
	p := m.startParallel(n, degree)

	var err error
	var timingPanic any
	func() {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(parAbort); !ok {
					timingPanic = e
				}
				p.abort.Store(true)
			}
		}()
		err = runQuanta(ctx, n, func(q int64) {
			for i := int64(0); i < q; i++ {
				rec, ok := p.recs.next()
				if !ok {
					panic(parAbort{})
				}
				p.cur = rec
				m.step(&rec.in)
				p.recs.release()
			}
		})
		if err != nil {
			p.abort.Store(true)
			return
		}
		p.recs.flushConsumer()
	}()

	p.wg.Wait()
	m.foldPar(p)
	if timingPanic != nil {
		panic(timingPanic)
	}
	if len(p.panics) > 0 {
		panic(p.panics[0])
	}
	if err != nil {
		return nil, err
	}

	noteParallelRun(degree)
	return m.result(), nil
}

// RunWorkloadParallel is RunWorkload with intra-run parallelism of the
// given degree (see RunOptions.Degree).
func RunWorkloadParallel(spec workload.Spec, cfg Config, n int64, degree int) *Result {
	res, _ := NewMachine(spec, cfg).RunWith(nil, n, RunOptions{Degree: degree}) // no ctx: never fails
	return res
}
