// Package queue implements the adaptive issue queue control algorithm of
// paper Section 3.2: a deterministic, exploration-free measurement of the
// inherent ILP of the instruction stream, used to choose among the four
// queue sizes (16, 32, 48, 64 entries) the one that maximizes effective
// ILP normalized to the frequency each size permits.
//
// The mechanism is register timestamping at rename: each logical register
// carries a small timestamp; an instruction's destination receives
// max(timestamps of its sources)+1, so the running maximum M measures the
// depth of the tightest dependence chain seen so far. After N instructions
// have been tracked the estimate of exploitable ILP inside an N-entry
// window is N/M_N. Tracking for window size N ends when *either* the
// integer or the floating-point instruction count reaches N, which
// naturally stifles consideration of queue sizes the less dominant
// instruction type could never fill.
package queue

import (
	"fmt"

	"gals/internal/isa"
	"gals/internal/timing"
)

// defaultWindowSizes are the paper's tracked queue capacities in upsizing
// order.
var defaultWindowSizes = [4]int{16, 32, 48, 64}

// DefaultWindowSizes returns the paper's tracked window sizes (16, 32, 48,
// 64): the default a controller's IQWindows should return unless it tunes
// the tracking hardware itself.
func DefaultWindowSizes() [4]int { return defaultWindowSizes }

// Sample is the tracker's measurement for one window size.
type Sample struct {
	// N is the window size (16, 32, 48 or 64).
	N int
	// M is the maximum dependence-chain timestamp when the window filled.
	M int
	// IntCount and FPCount are the per-type instruction counts when the
	// window filled (one of them equals N).
	IntCount, FPCount int
}

// EffectiveILP returns the frequency-scaled throughput estimate for a queue
// of the sampled size in the given domain: (count/M) * f(N), where count is
// the instruction count of the domain's type. The unit is arbitrary
// (instructions x MHz); only comparisons matter.
func (s Sample) EffectiveILP(fp bool, freqMHz float64) float64 {
	if s.M == 0 {
		return 0
	}
	count := s.IntCount
	if fp {
		count = s.FPCount
	}
	return float64(count) / float64(s.M) * freqMHz
}

// Tracker is the ILP tracking hardware: timestamp storage for all logical
// registers (4 bits per register for ILP16 up to 6 bits for ILP64 in the
// paper; modeled here with saturating integers) plus per-type counters.
// All four window sizes are tracked simultaneously, as in the paper's
// experiments.
type Tracker struct {
	ts      [isa.NumIntRegs + isa.NumFPRegs]uint8
	curMax  int
	nInt    int
	nFP     int
	next    int // index into sizes of the next threshold to record
	sizes   [4]int
	samples [4]Sample
}

// NewTracker returns a reset tracker with the paper's window sizes.
func NewTracker() *Tracker { return NewTrackerSizes(defaultWindowSizes) }

// NewTrackerSizes returns a reset tracker measuring the given window sizes,
// which must be positive, strictly increasing and at most 64 (the hardware
// timestamp saturation point). This is the controller-facing knob behind
// Controller.IQWindows — the decision ladder (timing.IQSizes) is unchanged;
// only the measurement thresholds move.
func NewTrackerSizes(sizes [4]int) *Tracker {
	prev := 0
	for _, n := range sizes {
		if n <= prev || n > maxTimestamp {
			panic(fmt.Sprintf("queue: window sizes %v must be strictly increasing in (0, %d]", sizes, maxTimestamp))
		}
		prev = n
	}
	t := &Tracker{sizes: sizes}
	t.Reset()
	return t
}

// Sizes returns the tracked window sizes.
func (t *Tracker) Sizes() [4]int { return t.sizes }

// Reset clears timestamps and counters, beginning a new tracking interval.
func (t *Tracker) Reset() {
	for i := range t.ts {
		t.ts[i] = 0
	}
	t.curMax = 0
	t.nInt = 0
	t.nFP = 0
	t.next = 0
	t.samples = [4]Sample{}
}

// maxTimestamp saturates at the largest window size: the hardware uses 6
// bits for ILP64 and deeper chains are indistinguishable from "serial".
const maxTimestamp = 64

// Observe feeds one renamed instruction through the tracking hardware and
// reports whether the full interval (all four window sizes) completed with
// this instruction. When it returns true the caller should read Samples
// and Reset for the next interval.
func (t *Tracker) Observe(in *isa.Inst) bool {
	// Timestamp propagation: the earliest a result can be ready is the
	// latest of its inputs plus one (all operations modeled as unit
	// latency, per the paper).
	var ts uint8
	if in.Src1.Valid() {
		ts = t.ts[in.Src1]
	}
	if in.Src2.Valid() {
		if s2 := t.ts[in.Src2]; s2 > ts {
			ts = s2
		}
	}
	if ts < maxTimestamp {
		ts++
	}
	if in.Dest.Valid() {
		t.ts[in.Dest] = ts
	}
	if int(ts) > t.curMax {
		t.curMax = int(ts)
	}

	// Count by execution type: FP operations count toward the FP queue,
	// everything else (integer ops, branches, memory address generation)
	// toward the integer queue.
	if in.Class.IsFP() {
		t.nFP++
	} else {
		t.nInt++
	}

	// Record thresholds: a window of size N has filled when either type's
	// count reaches N.
	for t.next < len(t.sizes) {
		n := t.sizes[t.next]
		if t.nInt < n && t.nFP < n {
			break
		}
		t.samples[t.next] = Sample{N: n, M: t.curMax, IntCount: t.nInt, FPCount: t.nFP}
		t.next++
	}
	return t.next == len(t.sizes)
}

// Samples returns the four completed measurements. Valid only after
// Observe returned true and before Reset.
func (t *Tracker) Samples() [4]Sample { return t.samples }

// Choose applies the control policy: among the four queue sizes, pick the
// one whose frequency-scaled effective ILP is highest for the given domain
// type. A size is considered only if the domain's instruction count could
// actually fill it — this is the paper's "stifling" of larger queue sizes
// that can never fill for the less dominant instruction type (Section
// 3.2). Ties break toward the smaller (faster) queue.
func Choose(samples [4]Sample, fp bool) timing.IQSize {
	best := timing.IQ16
	bestScore := -1.0
	for i, s := range samples {
		size := timing.IQSizes()[i]
		count := s.IntCount
		if fp {
			count = s.FPCount
		}
		if i > 0 && count < s.N {
			continue // the queue could never fill; stifle consideration
		}
		score := s.EffectiveILP(fp, timing.IQFreqMHz(s.N))
		if score > bestScore+1e-9 {
			best, bestScore = size, score
		}
	}
	return best
}

// Controller wraps the tracker with the resize decision policy for one
// issue queue (integer or floating point), including optional hysteresis:
// the choice must repeat for Hysteresis consecutive intervals before a
// resize is requested, which suppresses thrashing on noisy phases.
type Controller struct {
	// FP selects which instruction type this controller's queue serves.
	FP bool
	// Hysteresis is the number of consecutive agreeing intervals required
	// before switching (0 or 1 switches immediately).
	Hysteresis int

	current   timing.IQSize
	candidate timing.IQSize
	streak    int
}

// NewController creates a controller for a queue currently sized cur.
func NewController(fp bool, cur timing.IQSize, hysteresis int) *Controller {
	return &Controller{FP: fp, Hysteresis: hysteresis, current: cur, candidate: cur}
}

// Current returns the size the controller believes the queue has.
func (c *Controller) Current() timing.IQSize { return c.current }

// Decide consumes one completed interval's samples and returns the new
// size and whether a resize should be initiated now.
func (c *Controller) Decide(samples [4]Sample) (timing.IQSize, bool) {
	want := Choose(samples, c.FP)
	if want == c.current {
		c.candidate = want
		c.streak = 0
		return c.current, false
	}
	if want == c.candidate {
		c.streak++
	} else {
		c.candidate = want
		c.streak = 1
	}
	if c.streak >= c.Hysteresis {
		c.current = want
		c.streak = 0
		return want, true
	}
	return c.current, false
}
