// Package workload provides deterministic synthetic models of the paper's
// benchmark suite (MediaBench, Olden, SPEC2000; Tables 6-8).
//
// The paper runs Alpha binaries under SimpleScalar; those binaries and
// reference inputs are not available here, so each benchmark run is modeled
// as a parameterized instruction-stream generator that reproduces the
// workload properties the paper's adaptive tradeoffs depend on:
//
//   - instruction mix (integer/FP/load/store/branch),
//   - inherent ILP, via the dependence-distance structure of operands,
//   - branch predictability (loop branches, biased branches, and
//     data-dependent "noisy" branches as in adpcm decode),
//   - instruction-cache footprint (static code size and hot working set),
//   - data working-set size and access pattern (streaming, stack, random),
//   - program phases (periodic working-set or ILP shifts, as in apsi/art).
//
// A Trace is deterministic given the benchmark's seed: every machine
// configuration replays the identical dynamic instruction stream, mirroring
// the paper's fixed simulation windows. The stream's random draws follow
// math/rand's Go 1 value stream for rand.New(rand.NewSource(seed)),
// reproduced exactly by a concrete, inlinable copy of its source (rng.go).
package workload

import "gals/internal/isa"

// Address-space layout for generated traces. The bases are deliberately
// offset by non-multiples of the largest cache-way size so the regions do
// not all collide on the same cache sets (real address-space layout gives
// regions effectively independent page colors).
const (
	codeBase  = 0x0040_0000
	dataBase  = 0x1000_0000
	stackBase = 0x7fff_4000 // +0x4000 offsets the stack by 256 L1 sets
	hotBase   = 0x2000_9000 // hot-data region, offset by 576 lines
	stackKB   = 4

	// blockSpacing is the static code laid out per basic block: one
	// 64-byte I-cache line per block, up to 16 four-byte instructions.
	blockSpacing = 64
	maxBlockLen  = 14
	ringSize     = 64

	// genBatch is how many instructions Next generates at a time. A batch
	// generated in one loop, instead of one instruction between two
	// simulator steps, keeps the generator's branchy code and the
	// simulator's from alternating per instruction; PERFORMANCE.md has the
	// measurement.
	genBatch = 128
)

// Params control one phase of a generated workload. Fractions are in
// [0, 1]. The zero value is not useful; start from Defaults().
type Params struct {
	// CodeKB is the static code footprint; HotKB the hot instruction
	// working set that the walker loops within between slow drifts.
	CodeKB, HotKB int
	// AvgBlock is the mean basic-block length in instructions (3..14).
	AvgBlock int
	// FnBlocks is the number of basic blocks per function.
	FnBlocks int
	// ExcursionP is the probability that a function call targets cold
	// code outside the hot working set.
	ExcursionP float64
	// LoopFrac is the fraction of block-ending branches that are
	// loop-backs; LoopMeanTrips the mean trip count of a loop visit.
	LoopFrac      float64
	LoopMeanTrips int
	// NoiseFrac is the fraction of if-branches with ~50/50 outcomes
	// (data-dependent, unpredictable); the rest are biased at BiasedP.
	NoiseFrac float64
	BiasedP   float64

	// FPFrac is the fraction of compute operations that are floating
	// point; MulFrac and DivFrac split each type's compute into
	// multiply and divide/sqrt flavours.
	FPFrac, MulFrac, DivFrac float64
	// LoadFrac and StoreFrac are fractions of all instructions.
	LoadFrac, StoreFrac float64

	// SerialFrac is the fraction of compute operations chained directly
	// to the immediately preceding result (dependence distance 1);
	// other operands reach back uniformly up to MaxDepDist results.
	SerialFrac float64
	MaxDepDist int

	// DataKB is the data working set; StrideFrac the fraction of memory
	// accesses that stream sequentially; StackFrac the fraction hitting a
	// small hot stack region; the rest are spread over the working set
	// (pointer-chasing-like), of which HotDataFrac lands in a hot
	// HotDataKB subset (temporal locality).
	DataKB      int
	StrideFrac  float64
	StackFrac   float64
	HotDataFrac float64
	HotDataKB   int
}

// Defaults returns a mid-of-the-road integer workload parameterization.
func Defaults() Params {
	return Params{
		CodeKB: 16, HotKB: 8,
		AvgBlock: 7, FnBlocks: 8,
		ExcursionP: 0.03,
		LoopFrac:   0.25, LoopMeanTrips: 12,
		NoiseFrac: 0.08, BiasedP: 0.92,
		FPFrac: 0, MulFrac: 0.08, DivFrac: 0.01,
		LoadFrac: 0.26, StoreFrac: 0.12,
		SerialFrac: 0.35, MaxDepDist: 24,
		DataKB: 64, StrideFrac: 0.5, StackFrac: 0.2,
		HotDataFrac: 0.6, HotDataKB: 16,
	}
}

// Phase is one step of a cyclic phase schedule.
type Phase struct {
	// Len is the phase length in instructions.
	Len int64
	// P are the parameters in force during the phase.
	P Params
}

// Spec names one benchmark run of Tables 6-8.
type Spec struct {
	// Name is the paper's benchmark run name, e.g. "gcc" or
	// "adpcm decode".
	Name string
	// Suite is "MediaBench", "Olden", "SPEC2000-Int" or "SPEC2000-FP".
	Suite string
	// Window describes the paper's simulation window (Tables 6-8),
	// for documentation output.
	Window string
	// Seed makes the trace deterministic.
	Seed int64
	// Base are the parameters (first/only phase).
	Base Params
	// Phases, when non-empty, cycle; Base is ignored for phase fields
	// but still defines the static code layout.
	Phases []Phase
}

// loopRec tracks one active loop instance.
type loopRec struct {
	block     int // function-relative index of the loop branch's block
	remaining int
}

// Trace is a running workload generator. Create with Spec.NewTrace; fill
// instructions with Next.
type Trace struct {
	spec Spec
	p    Params
	rng  *rng // by pointer: copies of a Trace share one draw sequence

	phases    []Phase
	phaseIdx  int
	phaseLeft int64
	count     int64

	// Static layout, fixed by Base.CodeKB for the whole run.
	numBlocks int
	numFns    int
	fnBlocks  int

	// Walker state.
	fn          int
	blk         int // block index within function
	hotStart    int // first hot function
	hotPos      int // walker position within the hot set
	hotCount    int
	hotLeft     int // function executions until the hot window drifts
	returnFn    int // function to resume after an excursion (-1: none)
	loops       []loopRec
	pendingNext int // function-relative block to execute next (-1: compute)

	// Current block emission.
	blockID  int // global static block id
	blockLen int
	slot     int

	// Data-access state.
	seqAddr uint64

	// branchCnt approximates per-static-branch execution counters (used
	// to produce periodic, learnable outcome patterns); collisions are
	// harmless noise.
	branchCnt [4096]uint32

	// buf holds the current batch; Next returns buf[pos] next.
	buf [genBatch]isa.Inst
	pos int

	// Register rings: recently written registers by type.
	intRing [ringSize]isa.Reg
	fpRing  [ringSize]isa.Reg
	intPos  int
	fpPos   int
	destInt int
	destFP  int
}

// NewTrace starts the benchmark's deterministic instruction stream.
func (s Spec) NewTrace() *Trace {
	t := &Trace{
		spec:     s,
		rng:      newRNG(s.Seed),
		phases:   s.Phases,
		returnFn: -1,
	}
	base := s.Base
	t.fnBlocks = base.FnBlocks
	if t.fnBlocks <= 0 {
		t.fnBlocks = 8
	}
	t.numBlocks = base.CodeKB * 1024 / blockSpacing
	if t.numBlocks < t.fnBlocks {
		t.numBlocks = t.fnBlocks
	}
	t.numFns = t.numBlocks / t.fnBlocks
	if t.numFns < 1 {
		t.numFns = 1
	}
	for i := range t.intRing {
		t.intRing[i] = isa.IntReg(1 + i%28)
		t.fpRing[i] = isa.FPReg(1 + i%28)
	}
	t.setPhase(0)
	t.enterFunction(0)
	return t
}

// Spec returns the benchmark description.
func (t *Trace) Spec() Spec { return t.spec }

func (t *Trace) setPhase(idx int) {
	if len(t.phases) == 0 {
		t.p = t.spec.Base
		t.phaseLeft = 1 << 62
	} else {
		t.phaseIdx = idx % len(t.phases)
		ph := t.phases[t.phaseIdx]
		t.p = ph.P
		t.phaseLeft = ph.Len
	}
	t.hotCount = t.p.HotKB * 1024 / blockSpacing / t.fnBlocks
	if t.hotCount < 1 {
		t.hotCount = 1
	}
	if t.hotCount > t.numFns {
		t.hotCount = t.numFns
	}
	if t.hotLeft <= 0 {
		t.hotLeft = t.hotDwell()
	}
	if t.p.MaxDepDist < 1 {
		t.p.MaxDepDist = 1
	}
	if t.p.MaxDepDist > ringSize {
		t.p.MaxDepDist = ringSize
	}
}

// hotDwell is how many function executions happen before the hot window
// slides by one function (slow drift over the full footprint).
func (t *Trace) hotDwell() int { return t.hotCount * 24 }

// hash64 is a stateless mix used to derive stable per-static-block
// properties (length, branch kind, bias) from the block id and seed.
func (t *Trace) hash64(blockID int, salt uint64) uint64 {
	z := uint64(blockID)*0x9e3779b97f4a7c15 + uint64(t.spec.Seed) + salt*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Trace) staticBlockLen(blockID int) int {
	avg := t.p.AvgBlock
	if avg < 3 {
		avg = 3
	}
	if avg > maxBlockLen-2 {
		avg = maxBlockLen - 2
	}
	span := avg - 2 // lengths in [avg-span/…]: keep within [3, maxBlockLen]
	n := avg - span/2 + int(t.hash64(blockID, 1)%uint64(span+1))
	if n < 3 {
		n = 3
	}
	if n > maxBlockLen {
		n = maxBlockLen
	}
	return n
}

func (t *Trace) enterFunction(fn int) {
	t.fn = fn
	t.blk = 0
	t.loops = t.loops[:0]
	t.startBlock()
}

func (t *Trace) startBlock() {
	t.blockID = t.fn*t.fnBlocks + t.blk
	t.blockLen = t.staticBlockLen(t.blockID)
	t.slot = 0
}

func (t *Trace) blockPC(blockID int) uint64 {
	return codeBase + uint64(blockID)*blockSpacing
}

// pickSrc returns a recently written register of the given type: the last
// one when serial, otherwise one up to MaxDepDist results back.
func (t *Trace) pickSrc(fp bool, serial bool) isa.Reg {
	ring, pos := &t.intRing, t.intPos
	if fp {
		ring, pos = &t.fpRing, t.fpPos
	}
	d := 1
	if !serial {
		d = 1 + t.rng.Intn(t.p.MaxDepDist)
	}
	return ring[(pos-d+2*ringSize)%ringSize]
}

func (t *Trace) pushDest(fp bool, r isa.Reg) {
	if fp {
		t.fpRing[t.fpPos] = r
		t.fpPos = (t.fpPos + 1) % ringSize
	} else {
		t.intRing[t.intPos] = r
		t.intPos = (t.intPos + 1) % ringSize
	}
}

func (t *Trace) newDest(fp bool) isa.Reg {
	if fp {
		t.destFP = (t.destFP + 1) % 28
		r := isa.FPReg(1 + t.destFP)
		t.pushDest(true, r)
		return r
	}
	t.destInt = (t.destInt + 1) % 28
	r := isa.IntReg(1 + t.destInt)
	t.pushDest(false, r)
	return r
}

// dataAddr draws one memory address from the phase's access pattern.
func (t *Trace) dataAddr() uint64 {
	u := t.rng.Float64()
	ws := uint64(t.p.DataKB) * 1024
	if ws < 4096 {
		ws = 4096
	}
	switch {
	case u < t.p.StrideFrac:
		// Streaming with tile reuse: real kernels process arrays in
		// blocks, re-touching recent elements, so the sweep front moves
		// much slower than one line per access (this keeps streaming
		// from evicting a direct-mapped cache's entire hot contents on
		// every pass).
		if t.rng.Float64() < 0.7 {
			tile := t.seqAddr &^ 1023
			return dataBase + tile + uint64(t.rng.Intn(1024))&^7
		}
		t.seqAddr += 8
		if t.seqAddr >= ws {
			t.seqAddr = 0
		}
		return dataBase + t.seqAddr
	case u < t.p.StrideFrac+t.p.StackFrac:
		return stackBase + uint64(t.rng.Intn(stackKB*1024))&^7
	default:
		// Irregular access: HotDataFrac of these show temporal locality
		// in a hot subset; the rest roam the full working set.
		hot := uint64(t.p.HotDataKB) * 1024
		if hot > 0 && hot < ws && t.rng.Float64() < t.p.HotDataFrac {
			return hotBase + uint64(t.rng.Int63n(int64(hot)))&^7
		}
		return dataBase + uint64(t.rng.Int63n(int64(ws)))&^7
	}
}

// Next fills in with the next dynamic instruction. It always succeeds
// (traces are unbounded); the caller decides the window length.
func (t *Trace) Next(in *isa.Inst) {
	if t.pos == 0 {
		for i := range t.buf {
			t.generate(&t.buf[i])
		}
	}
	*in = t.buf[t.pos]
	t.pos = (t.pos + 1) % genBatch
	t.count++
}

// generate fills in with the stream's next instruction.
func (t *Trace) generate(in *isa.Inst) {
	if t.phaseLeft--; t.phaseLeft <= 0 && len(t.phases) > 0 {
		t.setPhase(t.phaseIdx + 1)
	}

	pc := t.blockPC(t.blockID) + uint64(t.slot)*4
	if t.slot < t.blockLen-1 {
		t.emitBody(in, pc)
		t.slot++
		return
	}
	t.emitControl(in, pc)
}

func (t *Trace) emitBody(in *isa.Inst, pc uint64) {
	u := t.rng.Float64()
	p := &t.p
	switch {
	case u < p.LoadFrac:
		fpDest := t.rng.Float64() < p.FPFrac
		*in = isa.Inst{
			PC:    pc,
			Class: isa.Load,
			Dest:  t.newDest(fpDest),
			Src1:  t.pickSrc(false, false), // address base
			Addr:  t.dataAddr(),
			Size:  8,
		}
	case u < p.LoadFrac+p.StoreFrac:
		fpData := t.rng.Float64() < p.FPFrac
		*in = isa.Inst{
			PC:    pc,
			Class: isa.Store,
			Dest:  isa.RegNone,
			Src1:  t.pickSrc(fpData, t.rng.Float64() < p.SerialFrac), // data
			Src2:  t.pickSrc(false, false),                           // base
			Addr:  t.dataAddr(),
			Size:  8,
		}
	default:
		fp := t.rng.Float64() < p.FPFrac
		var class isa.OpClass
		v := t.rng.Float64()
		switch {
		case fp && v < p.DivFrac/2:
			class = isa.FPSqrt
		case fp && v < p.DivFrac:
			class = isa.FPDiv
		case fp && v < p.DivFrac+p.MulFrac:
			class = isa.FPMult
		case fp:
			class = isa.FPAdd
		case v < p.DivFrac:
			class = isa.IntDiv
		case v < p.DivFrac+p.MulFrac:
			class = isa.IntMult
		default:
			class = isa.IntALU
		}
		serial := t.rng.Float64() < p.SerialFrac
		*in = isa.Inst{
			PC:    pc,
			Class: class,
			Src1:  t.pickSrc(fp, serial),
			Src2:  t.pickSrc(fp, false),
			Dest:  t.newDest(fp),
		}
	}
}

// branch kinds per static block.
const (
	kindIf = iota
	kindLoop
)

func (t *Trace) branchKind(blockID int) int {
	// The last block of a function always calls out, handled separately.
	if float64(t.hash64(blockID, 2)%1000)/1000 < t.p.LoopFrac {
		return kindLoop
	}
	return kindIf
}

// ifOutcome draws the outcome of an if-branch. A NoiseFrac share of static
// branches is data dependent: independent coin flips that no predictor can
// learn (as in the adpcm decoder kernel, paper Section 5.1). The rest
// follow a periodic pattern whose duty cycle matches the branch's bias,
// which history-based predictors learn after warmup, as with real code.
func (t *Trace) ifOutcome(blockID int) bool {
	h := t.hash64(blockID, 3)
	if float64(h%1000)/1000 < t.p.NoiseFrac {
		return t.rng.Float64() < 0.5
	}
	bias := t.p.BiasedP
	if h&1024 != 0 {
		bias = 1 - bias
	}
	period := uint32(4 + (h>>16)%5) // 4..8
	duty := uint32(float64(period)*bias + 0.5)
	cnt := t.branchCnt[blockID&4095]
	t.branchCnt[blockID&4095] = cnt + 1
	// Rare re-randomization keeps patterns from being perfectly static.
	if t.rng.Float64() < 0.01 {
		return t.rng.Float64() < bias
	}
	return cnt%period < duty
}

// loopTrips draws the trip count for one visit of a loop branch: stable per
// static site (so predictors can learn the exit) with mild variation.
func (t *Trace) loopTrips(blockID int) int {
	mean := t.p.LoopMeanTrips
	if mean < 1 {
		mean = 1
	}
	base := 1 + int(t.hash64(blockID, 5)%uint64(2*mean))
	jitter := 0
	if t.rng.Float64() < 0.2 {
		jitter = t.rng.Intn(3) - 1
	}
	trips := base + jitter
	if trips < 1 {
		trips = 1
	}
	return trips
}

func (t *Trace) emitControl(in *isa.Inst, pc uint64) {
	lastInFn := t.blk == t.fnBlocks-1
	if lastInFn {
		// Function end: unconditional jump (call/return) to the next
		// function chosen by the walker.
		next := t.nextFunction()
		*in = isa.Inst{
			PC:     pc,
			Class:  isa.Jump,
			Taken:  true,
			Target: t.blockPC(next * t.fnBlocks),
		}
		t.enterFunction(next)
		return
	}

	kind := t.branchKind(t.blockID)
	taken := false
	targetBlk := t.blk + 1 // fall through

	if kind == kindLoop && t.blk > 0 {
		// Loop-back branch over a small span of preceding blocks.
		span := 1 + int(t.hash64(t.blockID, 4)%3)
		if span > t.blk {
			span = t.blk
		}
		if n := len(t.loops); n > 0 && t.loops[n-1].block == t.blk {
			rec := &t.loops[n-1]
			if rec.remaining > 0 {
				rec.remaining--
				taken = true
				targetBlk = t.blk - span
			} else {
				t.loops = t.loops[:n-1]
			}
		} else if len(t.loops) < 4 {
			trips := t.loopTrips(t.blockID)
			if trips > 1 {
				t.loops = append(t.loops, loopRec{block: t.blk, remaining: trips - 1})
				taken = true
				targetBlk = t.blk - span
			}
		}
	} else {
		// If-branch: outcome drawn from the static branch's pattern;
		// taken skips the next block.
		if t.ifOutcome(t.blockID) {
			taken = true
			targetBlk = t.blk + 2
			if targetBlk >= t.fnBlocks {
				targetBlk = t.fnBlocks - 1
			}
		}
	}

	*in = isa.Inst{
		PC:     pc,
		Class:  isa.Branch,
		Src1:   t.pickSrc(false, true), // the compare feeding the branch
		Taken:  taken,
		Target: t.blockPC(t.fn*t.fnBlocks + targetBlk),
	}
	if !taken {
		in.Target = pc + 4
	}
	t.blk = targetBlk
	t.startBlock()
}

// nextFunction advances the instruction working-set walker.
func (t *Trace) nextFunction() int {
	if t.returnFn >= 0 {
		fn := t.returnFn
		t.returnFn = -1
		return fn
	}
	if t.numFns > t.hotCount && t.rng.Float64() < t.p.ExcursionP {
		// Excursion into cold code, then return to the hot set.
		t.returnFn = t.hotNext()
		cold := t.rng.Intn(t.numFns)
		return cold
	}
	return t.hotNext()
}

func (t *Trace) hotNext() int {
	t.hotLeft--
	if t.hotLeft <= 0 {
		t.hotStart = (t.hotStart + 1) % t.numFns
		t.hotLeft = t.hotDwell()
	}
	// Mostly sequential traversal of the hot set (call sequences in real
	// programs repeat, which keeps global branch history learnable), with
	// occasional jumps within the set.
	if t.rng.Float64() < 0.05 {
		t.hotPos = t.rng.Intn(t.hotCount)
	} else {
		t.hotPos = (t.hotPos + 1) % t.hotCount
	}
	return (t.hotStart + t.hotPos) % t.numFns
}
