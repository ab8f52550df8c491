package queue

import (
	"testing"

	"gals/internal/isa"
	"gals/internal/timing"
)

// serialInst builds a chain: each instruction consumes the previous dest.
func serialInst(i int) isa.Inst {
	return isa.Inst{
		Class: isa.IntALU,
		Dest:  isa.IntReg(1 + i%2),
		Src1:  isa.IntReg(1 + (i+1)%2),
	}
}

// parallelInst builds independent instructions across many registers.
func parallelInst(i int) isa.Inst {
	return isa.Inst{
		Class: isa.IntALU,
		Dest:  isa.IntReg(1 + i%24),
		Src1:  isa.IntReg(0), // r0, never written: timestamp stays 0
	}
}

func runTracker(t *testing.T, gen func(i int) isa.Inst) [4]Sample {
	t.Helper()
	tr := NewTrackerSizes(defaultWindowSizes)
	for i := 0; i < 10_000; i++ {
		in := gen(i)
		if tr.Observe(&in) {
			return tr.Samples()
		}
	}
	t.Fatal("tracking interval never completed")
	return [4]Sample{}
}

func TestSerialChainMeasuresLowILP(t *testing.T) {
	samples := runTracker(t, serialInst)
	for i, s := range samples {
		if s.N != []int{16, 32, 48, 64}[i] {
			t.Fatalf("sample %d has N=%d", i, s.N)
		}
		// A pure chain: M == number of instructions seen.
		if s.M < s.N-1 {
			t.Errorf("serial chain M=%d for N=%d, want ~N", s.M, s.N)
		}
	}
	if got := Choose(samples, false); got != timing.IQ16 {
		t.Errorf("serial code chose IQ%d, want 16 (frequency wins)", got)
	}
}

func TestParallelStreamMeasuresHighILP(t *testing.T) {
	samples := runTracker(t, parallelInst)
	// Fully independent: every timestamp is 1.
	for _, s := range samples {
		if s.M != 1 {
			t.Errorf("parallel stream M=%d for N=%d, want 1", s.M, s.N)
		}
	}
	// ILP estimate scales with N: the largest queue wins despite its
	// lower frequency.
	if got := Choose(samples, false); got != timing.IQ64 {
		t.Errorf("parallel code chose IQ%d, want 64", got)
	}
}

func TestSamplesMonotone(t *testing.T) {
	samples := runTracker(t, func(i int) isa.Inst {
		if i%3 == 0 {
			return serialInst(i)
		}
		return parallelInst(i)
	})
	for i := 1; i < len(samples); i++ {
		if samples[i].M < samples[i-1].M {
			t.Errorf("M not monotone: M[%d]=%d < M[%d]=%d", i, samples[i].M, i-1, samples[i-1].M)
		}
		if samples[i].IntCount < samples[i-1].IntCount {
			t.Error("IntCount not monotone")
		}
	}
}

func TestMinorityTypeStifled(t *testing.T) {
	// 10% FP: the FP queue can never fill beyond ~7 entries when the
	// integer side closes the interval, so larger FP sizes are stifled.
	samples := runTracker(t, func(i int) isa.Inst {
		if i%10 == 0 {
			return isa.Inst{Class: isa.FPAdd, Dest: isa.FPReg(1 + i%20), Src1: isa.FPReg(0)}
		}
		return parallelInst(i)
	})
	if got := Choose(samples, true); got != timing.IQ16 {
		t.Errorf("minority FP chose IQ%d, want 16 (stifled)", got)
	}
	// The integer side is parallel and majority: free to upsize.
	if got := Choose(samples, false); got != timing.IQ64 {
		t.Errorf("majority int chose IQ%d, want 64", got)
	}
}

func TestIntervalEndsOnEitherCount(t *testing.T) {
	// Pure FP stream: the FP counter must close the interval.
	tr := NewTrackerSizes(defaultWindowSizes)
	n := 0
	for i := 0; i < 1000; i++ {
		in := isa.Inst{Class: isa.FPMult, Dest: isa.FPReg(1 + i%20), Src1: isa.FPReg(0)}
		n++
		if tr.Observe(&in) {
			break
		}
	}
	if n != 64 {
		t.Errorf("interval closed after %d FP instructions, want 64", n)
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTrackerSizes(defaultWindowSizes)
	in := serialInst(0)
	for i := 0; i < 100; i++ {
		in = serialInst(i)
		tr.Observe(&in)
	}
	tr.Reset()
	in = parallelInst(0)
	if tr.Observe(&in) {
		t.Fatal("interval completed after a single instruction")
	}
	if tr.curMax != 1 {
		t.Errorf("timestamps not cleared by Reset: max=%d", tr.curMax)
	}
}

func TestTimestampSaturation(t *testing.T) {
	tr := NewTrackerSizes(defaultWindowSizes)
	for i := 0; i < 500; i++ {
		in := serialInst(i)
		if tr.Observe(&in) {
			tr.Reset()
		}
	}
	// Never panics, and M stays within the saturating range.
	for _, s := range tr.samples {
		if s.M > maxTimestamp {
			t.Errorf("M=%d exceeds saturation %d", s.M, maxTimestamp)
		}
	}
}

func TestControllerHysteresis(t *testing.T) {
	// Craft samples that favor IQ64 for a parallel stream.
	up := runTracker(t, parallelInst)
	down := runTracker(t, serialInst)

	c := NewController(false, timing.IQ16, 2)
	if _, resize := c.Decide(up); resize {
		t.Fatal("resized after one interval despite hysteresis 2")
	}
	size, resize := c.Decide(up)
	if !resize || size != timing.IQ64 {
		t.Fatalf("second agreeing interval: resize=%v size=%d, want true/64", resize, size)
	}
	// A disagreeing interval resets the streak.
	if _, resize := c.Decide(down); resize {
		t.Fatal("single down interval resized immediately")
	}
	if _, resize := c.Decide(up); resize {
		t.Fatal("streak not reset by disagreement")
	}
	if c.current != timing.IQ64 {
		t.Errorf("current = %d, want 64", c.current)
	}
}

func TestEffectiveILPZeroM(t *testing.T) {
	s := Sample{N: 16, M: 0, IntCount: 0, FPCount: 0}
	if got := s.EffectiveILP(false, 1500); got != 0 {
		t.Errorf("zero-M estimate = %v, want 0", got)
	}
}
