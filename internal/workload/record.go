// Recorded traces: a benchmark's deterministic instruction stream captured
// once into an immutable slab and replayed by any number of concurrent
// simulation runs. The design-space sweeps of paper Section 4 run every
// configuration on the same dynamic instruction window, so regenerating the
// stream per run (12,800-40,960 times per sweep) is pure waste; a Recording
// amortizes the generation cost to once per benchmark.
//
// A Recording's slab takes one of two forms: a decoded []isa.Inst in heap
// (Spec.Record), or an encoded byte slab (RecordingFromEncoded) that may be
// an mmap'd file from internal/recstore — the latter is how paper-scale
// windows (millions of instructions x 40 benchmarks) fit in bounded memory.
// Replays of both forms are bit-identical to live generation.
package workload

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"gals/internal/isa"
)

// Recording is an immutable recorded prefix of a benchmark's trace. It is
// safe for concurrent use: every Replay carries its own cursor and only
// reads the shared slab.
type Recording struct {
	spec  Spec
	insts []isa.Inst // decoded slab (nil when raw-backed)
	raw   []byte     // encoded slab (mmap or heap backed; nil when decoded)
	count int64

	derivedMu sync.Mutex
	derived   map[any]any // see Derived
}

// Record captures the first n instructions of the benchmark's deterministic
// stream. The result replays bit-identically to a live Trace.
func (s Spec) Record(n int64) *Recording {
	if n <= 0 {
		panic(fmt.Sprintf("workload: non-positive recording length %d", n))
	}
	rec, _ := s.RecordContext(nil, n)
	return rec
}

// RecordContext is Record bounded by ctx: cancellation is observed every
// 4096 instructions, and a cancelled capture returns ctx's error with no
// recording. A nil or never-cancellable ctx cannot fail (for positive n) and
// produces exactly what Record does.
func (s Spec) RecordContext(ctx context.Context, n int64) (*Recording, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive recording length %d", n)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
		select {
		case <-done:
			// Check before committing n*40 bytes of heap to a doomed capture.
			return nil, ctx.Err()
		default:
		}
	}
	tr := s.NewTrace()
	insts := make([]isa.Inst, n)
	for i := range insts {
		if done != nil && i&4095 == 4095 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		tr.Next(&insts[i])
	}
	return &Recording{spec: s, insts: insts, count: n}, nil
}

// Spec returns the benchmark description.
func (r *Recording) Spec() Spec { return r.spec }

// Len returns the number of recorded instructions.
func (r *Recording) Len() int64 { return r.count }

// Derived returns the value kept with the recording under key, calling mk
// to create it on first use; created reports whether this call did. It
// lets the layers above keep data computed from the recorded instructions
// (the simulator's functional streams) with the recording itself, so the
// data is shared by every run of the recording and lives exactly as long
// as it does. Safe for concurrent use: mk runs at most once per key, under
// a lock, so it should only allocate and leave the work to the value.
func (r *Recording) Derived(key any, mk func() any) (v any, created bool) {
	r.derivedMu.Lock()
	defer r.derivedMu.Unlock()
	if v, ok := r.derived[key]; ok {
		return v, false
	}
	if r.derived == nil {
		r.derived = make(map[any]any)
	}
	v = mk()
	r.derived[key] = v
	return v, true
}

// Replay returns a fresh cursor over the recording. Replays are cheap;
// create one per simulation run.
func (r *Recording) Replay() *Replay { return &Replay{rec: r} }

// replayChunk is the number of instructions a raw-backed replay decodes at
// a time: large enough to amortize the decode loop, small enough that a
// worker's cursor costs ~20 KB regardless of the recording's length.
const replayChunk = 512

// Replay streams a Recording from the beginning. Reading past the recorded
// window falls back to live generation (the generator is deterministic, so
// the continuation is exactly what a live Trace would have produced); the
// fallback regenerates and discards the recorded prefix once, so size
// recordings to the simulation window when that matters.
type Replay struct {
	rec  *Recording
	pos  int64
	tail *Trace

	// Decode window over a raw-backed slab: buf holds instructions
	// [bufStart, bufStart+len(buf)).
	buf      []isa.Inst
	bufStart int64
}

// Spec returns the benchmark description.
func (p *Replay) Spec() Spec { return p.rec.spec }

// Recording returns the recording the cursor replays.
func (p *Replay) Recording() *Recording { return p.rec }

// Count returns the number of instructions replayed so far.
func (p *Replay) Count() int64 { return p.pos }

// Next fills in with the next dynamic instruction.
func (p *Replay) Next(in *isa.Inst) {
	if p.pos < p.rec.count {
		if p.rec.insts != nil {
			*in = p.rec.insts[p.pos]
			p.pos++
			return
		}
		if p.pos >= p.bufStart+int64(len(p.buf)) || p.pos < p.bufStart {
			p.fill()
		}
		*in = p.buf[p.pos-p.bufStart]
		p.pos++
		return
	}
	if p.tail == nil {
		p.tail = p.rec.spec.NewTrace()
		var skip isa.Inst
		for i := int64(0); i < p.rec.count; i++ {
			p.tail.Next(&skip)
		}
	}
	p.pos++
	p.tail.Next(in)
}

// fill decodes the next chunk of a raw-backed slab at the cursor.
func (p *Replay) fill() {
	n := p.rec.count - p.pos
	if n > replayChunk {
		n = replayChunk
	}
	if p.buf == nil {
		p.buf = make([]isa.Inst, replayChunk)
	}
	p.buf = p.buf[:n]
	src := p.rec.raw[p.pos*EncodedInstSize:]
	for i := range p.buf {
		decodeInst(src[i*EncodedInstSize:], &p.buf[i])
	}
	p.bufStart = p.pos
}

// Backing supplies recordings from somewhere other than live generation —
// internal/recstore implements it with mmap'd on-disk slabs. A Backing must
// be safe for concurrent use and must return recordings of exactly window
// instructions, bit-identical to Spec.Record(window).
type Backing interface {
	Recording(s Spec, window int64) (*Recording, error)
}

// Releaser is the optional Backing extension for stores whose recordings
// hold per-acquisition resources (recstore's slab mappings): Release
// returns one Recording reference, and the store reclaims the resource when
// the last reference drops. Pool.Retire calls it for every recording the
// pool obtained from its backing.
type Releaser interface {
	Release(s Spec, window int64)
}

// ContextBacking is the optional Backing extension for stores that can
// abandon an in-progress recording when the requester's deadline expires
// (recstore aborts the slab stream and removes the temp file).
// Pool.GetContext prefers it when the caller's ctx is cancellable.
type ContextBacking interface {
	RecordingContext(ctx context.Context, s Spec, window int64) (*Recording, error)
}

// Pool shares recordings across concurrent simulation runs: each benchmark
// is recorded at most once per pool, on first request. A nil *Pool reports
// Window 0 and Size 0, so callers can treat "no pool" uniformly.
type Pool struct {
	window  int64
	backing Backing
	mu      sync.Mutex
	recs    map[string]*poolEntry
}

type poolEntry struct {
	done   chan struct{} // closed once rec/err is settled
	rec    *Recording
	err    error
	backed bool // the recording came from (and is refcounted by) the backing
}

// NewPool creates a pool whose recordings cover window instructions.
func NewPool(window int64) *Pool { return NewBackedPool(window, nil) }

// NewBackedPool creates a pool that asks b for each benchmark's recording
// before recording in memory, making the pool a thin view over a shared
// (typically on-disk, mmap-backed) store. A nil Backing is the plain
// in-memory pool; a Backing error degrades to in-memory recording, never to
// a failure.
func NewBackedPool(window int64, b Backing) *Pool {
	if window <= 0 {
		panic(fmt.Sprintf("workload: non-positive pool window %d", window))
	}
	return &Pool{window: window, backing: b, recs: make(map[string]*poolEntry)}
}

// Window returns the recording length the pool was created with.
func (p *Pool) Window() int64 {
	if p == nil {
		return 0
	}
	return p.window
}

// Get returns the benchmark's shared recording, capturing it on first use.
// Distinct benchmarks record concurrently; a benchmark already being
// recorded blocks only its own requesters. Entries are keyed by Spec.Name;
// if a different Spec arrives under a cached name (caller-constructed specs
// colliding with the registry), Get falls back to a private, unshared
// recording so results stay correct — at full recording cost per call.
func (p *Pool) Get(s Spec) *Recording {
	rec, err := p.GetContext(nil, s)
	if err != nil {
		// Unreachable: with no cancellable ctx, a backing failure degrades
		// to in-memory recording, which cannot fail for a valid pool window.
		panic(fmt.Sprintf("workload: pool record failed without a context: %v", err))
	}
	return rec
}

// GetContext is Get bounded by ctx: a first-use capture (backing stream or
// in-memory recording) observes cancellation while it runs, and a waiter on
// someone else's in-progress capture stops waiting when its own ctx expires.
// A cancelled capture never poisons the pool — the entry is forgotten and
// the next requester records afresh. A nil ctx is Get.
func (p *Pool) GetContext(ctx context.Context, s Spec) (*Recording, error) {
	for {
		p.mu.Lock()
		e := p.recs[s.Name]
		if e == nil {
			// Leader: capture outside the pool lock, then settle the entry.
			e = &poolEntry{done: make(chan struct{})}
			p.recs[s.Name] = e
			p.mu.Unlock()
			rec, backed, err := p.capture(ctx, s)
			p.mu.Lock()
			if err != nil {
				if p.recs[s.Name] == e {
					delete(p.recs, s.Name)
				}
				e.err = err
				close(e.done)
				p.mu.Unlock()
				return nil, err
			}
			e.rec, e.backed = rec, backed
			close(e.done)
			p.mu.Unlock()
		} else {
			p.mu.Unlock()
			if ctx != nil {
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			} else {
				<-e.done
			}
			if e.err != nil {
				// The leader's capture was cancelled (its deadline, not
				// ours) and the entry forgotten: take over as leader.
				continue
			}
		}
		if !reflect.DeepEqual(e.rec.spec, s) {
			return s.RecordContext(ctx, p.window)
		}
		return e.rec, nil
	}
}

// capture obtains one recording for s: from the backing when available (and
// not itself cancelled), degrading to an in-memory capture on backing
// errors. Only ctx cancellation makes capture fail.
func (p *Pool) capture(ctx context.Context, s Spec) (rec *Recording, backed bool, err error) {
	if p.backing != nil {
		if cb, ok := p.backing.(ContextBacking); ok && ctx != nil {
			rec, err = cb.RecordingContext(ctx, s, p.window)
		} else {
			rec, err = p.backing.Recording(s, p.window)
		}
		if err == nil && rec.Len() == p.window {
			return rec, true, nil
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, false, cerr
			}
		}
	}
	rec, err = s.RecordContext(ctx, p.window)
	return rec, false, err
}

// Retire drops the pool's recordings and, when the backing implements
// Releaser, returns each backing-obtained recording's reference so the
// store can reclaim its resources (recstore unmaps slabs on the last
// reference). The caller must guarantee the pool is quiescent: no
// concurrent Get, and no live Replay over any recording this pool handed
// out. A retired pool remains usable — the next Get simply re-acquires.
// A nil *Pool retires trivially.
func (p *Pool) Retire() {
	if p == nil {
		return
	}
	p.mu.Lock()
	recs := p.recs
	p.recs = make(map[string]*poolEntry)
	p.mu.Unlock()
	rel, ok := p.backing.(Releaser)
	if !ok {
		return
	}
	for _, e := range recs {
		if e.backed && e.rec != nil {
			rel.Release(e.rec.spec, p.window)
		}
	}
}

// Size returns the number of benchmarks recorded so far.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.recs)
}
