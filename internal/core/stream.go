// Functional streams: a recording's configuration-independent work, done
// once and reused by every Phase-Adaptive run that replays it.
//
// The functional stage (functional.go) depends only on the instruction
// stream and the tracker's window sizes, never on the configuration, seed
// or policy of the run. A recording therefore keeps, next to its
// instructions, the compact outcome of that stage: one int8 position code
// per cache access that happens, 4 prediction bits per branch (one per
// predictor geometry) and the tracker's fire points and samples. A run
// that replays the recording from its start drives the ordinary step()
// loop from this stream through the same m.par access points the
// stage-parallel machine uses, so what remains per instruction is the
// timing model alone. The stream is cut into chunks built lazily, in
// order, by whichever run needs one first; a cancelled run leaves the
// chunks it built for the next.
//
// A recording's first eligible run only notes that the recording was run
// and takes the fused loop; the second starts the stream. That way a
// recording replayed once (a sweep's single Phase-Adaptive pass, a one-off
// request) never holds a stream's heap or pays for its builder's second
// set of caches and predictors.
//
// Eligibility comes from the source and the configuration alone: a fresh
// Phase-Adaptive machine (whose caches always have the standard adaptive
// geometry) replaying a *workload.Recording from position 0, for no more
// instructions than the recording holds. Live traces and synchronous and
// Program-Adaptive machines, sets-resized front ends included, run the
// fused loop.

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/isa"
	"gals/internal/queue"
	"gals/internal/workload"
)

// streamChunkLen is the number of instructions in one stream chunk.
const streamChunkLen = 4096

// streamKey is the key a recording keeps its functional stream under: the
// stream's tracker samples depend on the measured window sizes.
type streamKey struct{ windows [4]int }

// funcStream is one recording's functional stream.
type funcStream struct {
	rec     *workload.Recording
	n       int64 // instructions covered: the whole recording
	windows [4]int

	// runs counts the eligible runs that asked for the stream; the first
	// runs fused and the second opens the stream.
	runs atomic.Int64

	// chunks is allocated when the stream opens. built counts the complete
	// chunks, a prefix of chunks that is immutable once published; mu
	// serializes opening and building, and b is the builder's state,
	// dropped once the last chunk is built.
	chunks []streamChunk
	built  atomic.Int64
	mu     sync.Mutex
	b      *streamBuilder

	// bytes is the heap size of the stream, allocated on its own so the
	// cleanup that subtracts it from the process gauge does not keep the
	// stream reachable.
	bytes *atomic.Int64
}

// streamChunk is the functional outcome of streamChunkLen instructions.
type streamChunk struct {
	i, d, l2 []byte // position codes (int8) of each access, in order
	pred     []byte // branch predictions, two branches per byte, low nibble first
	fires    []iqFire
}

// iqFire is one completed ILP-tracking interval.
type iqFire struct {
	at uint16 // instruction offset within the chunk
	// s holds each window's M, IntCount and FPCount. All three are at most
	// the window size, which NewTrackerSizes bounds by 64.
	s [4][3]uint8
}

// streamBuilder is the functional state that extends a stream.
type streamBuilder struct {
	f   funcStage
	src *workload.Replay

	// Buffers for the chunk being built, reused from chunk to chunk.
	i, d, l2, pred []byte
	fires          []iqFire
}

// streamFor returns rec's functional stream for the given tracker
// windows, or nil on the recording's first eligible run, which runs fused.
func streamFor(rec *workload.Recording, windows [4]int) *funcStream {
	v, _ := rec.Derived(streamKey{windows}, func() any { return newFuncStream(rec, windows) })
	s := v.(*funcStream)
	if s.runs.Add(1) == 1 {
		return nil
	}
	if s.open() {
		streamBuilds.Add(1)
	} else {
		streamReuses.Add(1)
	}
	return s
}

// newFuncStream returns rec's stream, not yet open.
func newFuncStream(rec *workload.Recording, windows [4]int) *funcStream {
	return &funcStream{rec: rec, n: rec.Len(), windows: windows, bytes: new(atomic.Int64)}
}

// open allocates the stream's chunk table and builder, unless an earlier
// call did, and reports whether this call did.
func (s *funcStream) open() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chunks != nil {
		return false
	}
	s.chunks = make([]streamChunk, (s.n+streamChunkLen-1)/streamChunkLen)
	gi, gd, gl2 := adaptiveGeometry()
	s.b = &streamBuilder{
		f: funcStage{
			icache:  cache.New(gi),
			dcache:  cache.New(gd),
			l2:      cache.New(gl2),
			tracker: queue.NewTrackerSizes(s.windows),
			bank:    bpred.NewBank(0),
			phase:   true,
		},
		src: s.rec.Replay(),
	}
	s.addBytes(int64(len(s.chunks)) * int64(unsafe.Sizeof(streamChunk{})))
	runtime.AddCleanup(s, func(b *atomic.Int64) { streamBytes.Add(-b.Load()) }, s.bytes)
	if s.complete() {
		s.b = nil
	}
	return true
}

func (s *funcStream) addBytes(n int64) {
	s.bytes.Add(n)
	streamBytes.Add(n)
}

// complete reports whether every chunk is built.
func (s *funcStream) complete() bool { return s.built.Load() == int64(len(s.chunks)) }

// chunk returns chunk ci, building it (and any before it) first if needed.
func (s *funcStream) chunk(ci int) *streamChunk {
	for int64(ci) >= s.built.Load() {
		s.buildOne()
	}
	return &s.chunks[ci]
}

// buildOne builds the next missing chunk, if any, and reports whether
// chunks remain to be built.
func (s *funcStream) buildOne() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b != nil {
		s.buildNext()
	}
	return s.b != nil
}

// buildNext runs the functional stage over the next chunk's instructions
// and publishes the chunk. Called with mu held.
func (s *funcStream) buildNext() {
	b := s.b
	ci := s.built.Load()
	start := ci * streamChunkLen
	end := min(start+streamChunkLen, s.n)
	b.i, b.d, b.l2, b.pred, b.fires = b.i[:0], b.d[:0], b.l2[:0], b.pred[:0], b.fires[:0]
	var in isa.Inst
	var o funcOut
	branches := 0
	for k := start; k < end; k++ {
		b.src.Next(&in)
		b.f.step(&in, &o)
		if o.iPos != parNoAccess {
			b.i = append(b.i, byte(o.iPos))
		}
		if o.iL2 != parNoAccess {
			b.l2 = append(b.l2, byte(o.iL2))
		}
		if o.dPos != parNoAccess {
			b.d = append(b.d, byte(o.dPos))
		}
		if o.dL2 != parNoAccess {
			b.l2 = append(b.l2, byte(o.dL2))
		}
		if in.Class == isa.Branch {
			if branches&1 == 0 {
				b.pred = append(b.pred, o.pred)
			} else {
				b.pred[len(b.pred)-1] |= o.pred << 4
			}
			branches++
		}
		if o.fire {
			fire := iqFire{at: uint16(k - start)}
			for w, smp := range b.f.samples {
				fire.s[w] = [3]uint8{uint8(smp.M), uint8(smp.IntCount), uint8(smp.FPCount)}
			}
			b.fires = append(b.fires, fire)
		}
	}

	c := &s.chunks[ci]
	buf := make([]byte, len(b.i)+len(b.d)+len(b.l2)+len(b.pred))
	carve := func(src []byte) []byte {
		dst := buf[:len(src):len(src)]
		copy(dst, src)
		buf = buf[len(src):]
		return dst
	}
	c.i, c.d, c.l2, c.pred = carve(b.i), carve(b.d), carve(b.l2), carve(b.pred)
	size := int64(len(b.i) + len(b.d) + len(b.l2) + len(b.pred))
	if len(b.fires) > 0 {
		c.fires = append([]iqFire(nil), b.fires...)
		size += int64(len(c.fires)) * int64(unsafe.Sizeof(iqFire{}))
	}
	s.addBytes(size)
	s.built.Store(ci + 1)
	if s.complete() {
		s.b = nil
	}
}

// streamCursor is one run's position in a functional stream.
type streamCursor struct {
	s       *funcStream
	trackIQ bool // the run consumes the tracker's fires

	c          *streamChunk // the loaded chunk
	start, end int64        // its instruction range
	ni, nd     int          // next I, D position codes
	nl2, nb    int          // next L2 code, next branch
	nf         int          // next fire
	fireAt     int64        // instruction index of the next fire; -1: none in the chunk
}

// load makes sure the chunk holding instruction count is loaded and
// returns how many instructions from count on it still covers.
func (c *streamCursor) load(count int64) int64 {
	if count < c.end {
		return c.end - count
	}
	if ch := c.c; ch != nil {
		if c.ni != len(ch.i) || c.nd != len(ch.d) || c.nl2 != len(ch.l2) ||
			(c.nb+1)/2 != len(ch.pred) || (c.trackIQ && c.nf != len(ch.fires)) {
			panic(fmt.Sprintf("core: functional stream desync in the chunk at instruction %d", c.start))
		}
	}
	ci := count / streamChunkLen
	c.c = c.s.chunk(int(ci))
	c.start = ci * streamChunkLen
	c.end = min(c.start+streamChunkLen, c.s.n)
	c.ni, c.nd, c.nl2, c.nb, c.nf = 0, 0, 0, 0, 0
	c.nextFire()
	return c.end - count
}

func (c *streamCursor) nextI() int8 {
	v := int8(c.c.i[c.ni])
	c.ni++
	return v
}

func (c *streamCursor) nextD() int8 {
	v := int8(c.c.d[c.nd])
	c.nd++
	return v
}

func (c *streamCursor) nextL2() int8 {
	v := int8(c.c.l2[c.nl2])
	c.nl2++
	return v
}

func (c *streamCursor) nextPred() uint8 {
	v := c.c.pred[c.nb>>1] >> (4 * (c.nb & 1)) & 0xf
	c.nb++
	return v
}

// nextFire points fireAt at the loaded chunk's next tracker fire.
func (c *streamCursor) nextFire() {
	c.fireAt = -1
	if c.trackIQ && c.nf < len(c.c.fires) {
		c.fireAt = c.start + int64(c.c.fires[c.nf].at)
	}
}

// popSamples returns the samples of the fire at fireAt and moves on.
func (c *streamCursor) popSamples() [4]queue.Sample {
	f := &c.c.fires[c.nf]
	var out [4]queue.Sample
	for w, n := range c.s.windows {
		out[w] = queue.Sample{N: n, M: int(f.s[w][0]), IntCount: int(f.s[w][1]), FPCount: int(f.s[w][2])}
	}
	c.nf++
	c.nextFire()
	return out
}

// useStream decides how a run of n more instructions gets its functional
// work, and reports whether it is streamed. An eligible fresh machine
// attaches its recording's stream, unless its run is the recording's
// first; a streamed machine keeps it while the stream covers the run and
// otherwise returns to the fused loop. Called once per run: each call on
// an eligible fresh machine counts as a run of the recording.
func (m *Machine) useStream(n int64) bool {
	if p := m.par; p != nil {
		if m.count+n <= p.fs.s.n {
			return true
		}
		m.leaveStream(p)
		return false
	}
	rec := m.streamRecording(n)
	if rec == nil {
		return false
	}
	trackIQ := m.tracker != nil && !m.cfg.DisableIQAdapt
	windows := queue.DefaultWindowSizes()
	if trackIQ {
		windows = m.tracker.Sizes()
	}
	s := streamFor(rec, windows)
	if s == nil {
		return false
	}
	p := m.newParState()
	p.fs = &streamCursor{s: s, trackIQ: trackIQ, fireAt: -1}
	m.par = p
	return true
}

// streamRecording returns the recording whose stream a run of n more
// instructions is eligible for, or nil: the machine must be a fresh
// Phase-Adaptive one replaying a recording from its start, for no more
// instructions than the recording holds.
func (m *Machine) streamRecording(n int64) *workload.Recording {
	src, ok := m.trace.(*workload.Replay)
	if !ok || m.cfg.Mode != PhaseAdaptive || m.count != 0 || src.Count() != 0 || n > src.Recording().Len() {
		return nil
	}
	return src.Recording()
}

// leaveStream returns a streamed machine to the fused loop: the
// functional state the stream stood in for is rebuilt by running the
// machine's own caches, tracker and predictors over the instructions
// executed so far, and the timing stage's configurations and interval
// statistics go back to the caches.
func (m *Machine) leaveStream(p *parState) {
	f := m.newFuncStage()
	f.curLine, f.lineLeft = 0, 0
	src := p.fs.s.rec.Replay()
	var in isa.Inst
	var o funcOut
	for i := int64(0); i < m.count; i++ {
		src.Next(&in)
		f.step(&in, &o)
	}
	m.foldPar(p)
}
