// The functional half of the simulator: per instruction, the MRU updates
// of the three accounting caches, the ILP tracker and the branch predictor
// training. None of it depends on the machine's configuration (paper
// Section 3.1: the Accounting Cache keeps the same MRU state under every
// partitioning; every predictor geometry is trained on every branch), so
// it can run ahead of the timing model (parallel.go) or once per recording
// for every run that replays it (stream.go). funcStage.step is the single
// per-instruction body both share.

package core

import (
	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/isa"
	"gals/internal/queue"
)

// Access codes, as shipped to and consumed by the timing model: the
// AccessPos result (0..7 the MRU position of a hit, -1 a directory miss
// that evicted nothing dirty) or one of these.
const (
	// parNoAccess marks an access that never happened. Consuming it is a
	// functional/timing desync and panics.
	parNoAccess = int8(-2)
	// posDirtyMiss is a directory miss that evicted a dirty line.
	posDirtyMiss = int8(-3)
)

// access performs one functional cache access and returns its code.
func access(c *cache.AccountingCache, addr uint64, write bool) int8 {
	wb := c.Writebacks()
	pos := c.AccessPos(addr, write)
	if c.Writebacks() != wb {
		return posDirtyMiss
	}
	return int8(pos)
}

// tally folds one consumed access code into an interval histogram,
// exactly as cache.AccessPos counts the access.
func tally(h *cache.Stats, code int8) {
	if code >= 0 {
		h.Count(int(code), false)
	} else {
		h.Count(-1, code == posDirtyMiss)
	}
}

// funcOut is one instruction's functional outcome: the code of every cache
// access it made (parNoAccess where none happened), its branch predictions
// and whether the ILP tracker completed an interval on it.
type funcOut struct {
	iPos int8 // I-cache access
	iL2  int8 // L2 access of the I-side line fill
	dPos int8 // D-cache access (loads and stores)
	dL2  int8 // L2 access of the D-side line fill
	// pred holds a branch's predictions, bit i from the predictor paired
	// with I-cache configuration i (only bit 0 on the synchronous machine).
	pred uint8
	fire bool
}

// funcStage is the functional state of one run: the caches, tracker and
// predictors it evolves in instruction order, and a replica of the timing
// model's fetch-group state machine (a pure function of the PC stream)
// that decides when the I-cache is accessed.
type funcStage struct {
	icache, dcache, l2 *cache.AccountingCache
	tracker            *queue.Tracker // nil when IQ tracking is off
	bank               *bpred.Bank    // adaptive machines
	syncPred           *bpred.Predictor

	// samples holds the tracker's measurements from its last completed
	// interval (valid after step reports fire).
	samples [4]queue.Sample

	// Next-level access rule: in PhaseAdaptive mode every Configure passes
	// bEnabled=true (forced false only when waysA equals the physical way
	// count, where no position can classify as Miss), so an access misses
	// iff it missed the directory; in the static modes the configuration
	// never changes after construction, so the run-start classification
	// is exact.
	phase  bool
	iW, dW int
	iB, dB bool

	curLine  uint64
	lineLeft int
}

// newFuncStage binds the functional stage to the machine's own caches,
// tracker and predictors, with the fetch-group replica at the timing
// model's current state.
func (m *Machine) newFuncStage() funcStage {
	f := funcStage{
		icache: m.icache, dcache: m.dcache, l2: m.l2,
		bank: m.bank, syncPred: m.syncPred,
		phase: m.cfg.Mode == PhaseAdaptive,
		iW:    m.icache.WaysA(), iB: m.icache.BEnabled(),
		dW: m.dcache.WaysA(), dB: m.dcache.BEnabled(),
		curLine: m.curLine, lineLeft: m.lineLeft,
	}
	if !m.cfg.DisableIQAdapt {
		f.tracker = m.tracker
	}
	return f
}

// miss reports whether the timing model will classify code as a Miss,
// i.e. whether the next-level access happens.
func (f *funcStage) miss(code int8, waysA int, b bool) bool {
	if f.phase {
		return code < 0
	}
	return cache.ClassifyPos(int(code), waysA, b) == cache.Miss
}

// step performs one instruction's functional work and reports it in o.
func (f *funcStage) step(in *isa.Inst, o *funcOut) {
	*o = funcOut{iPos: parNoAccess, iL2: parNoAccess, dPos: parNoAccess, dL2: parNoAccess}

	// Fetch: a new line accesses the I-cache (and the L2 on a miss).
	line := in.PC >> 6
	if line != f.curLine || f.lineLeft == 0 {
		if line != f.curLine {
			o.iPos = access(f.icache, in.PC, false)
			if f.miss(o.iPos, f.iW, f.iB) {
				o.iL2 = access(f.l2, in.PC&^uint64(L2LineBytes-1), false)
			}
		}
		f.curLine = line
		f.lineLeft = DecodeWidth
	}
	f.lineLeft--

	// ILP tracking at rename.
	if f.tracker != nil && f.tracker.Observe(in) {
		f.samples = f.tracker.Samples()
		f.tracker.Reset()
		o.fire = true
	}

	// Memory operations: L1D access, L2 on a (timed) miss. Stores are
	// write-allocate through the L2, matching execStore. Branches train
	// every predictor after reading its prediction.
	switch in.Class {
	case isa.Load, isa.Store:
		write := in.Class == isa.Store
		o.dPos = access(f.dcache, in.Addr, write)
		if f.miss(o.dPos, f.dW, f.dB) {
			o.dL2 = access(f.l2, in.Addr, write)
		}
	case isa.Branch:
		if f.bank != nil {
			o.pred = f.bank.Predictions(in.PC)
			f.bank.Update(in.PC, in.Taken)
		} else {
			if f.syncPred.Predict(in.PC) {
				o.pred = 1
			}
			f.syncPred.Update(in.PC, in.Taken)
		}
	}
}
