package workload

import (
	"testing"

	"gals/internal/isa"
)

func testSpec() Spec {
	return Spec{Name: "test", Seed: 123, Base: Defaults()}
}

func TestDeterministicReplay(t *testing.T) {
	a := testSpec().NewTrace()
	b := testSpec().NewTrace()
	var x, y isa.Inst
	for i := 0; i < 50_000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatalf("traces diverge at %d: %v vs %v", i, x, y)
		}
	}
	if a.count != 50_000 {
		t.Errorf("count = %d, want 50000", a.count)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := testSpec().NewTrace()
	s := testSpec()
	s.Seed = 999
	b := s.NewTrace()
	var x, y isa.Inst
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x == y {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical traces")
	}
}

func TestInstructionMix(t *testing.T) {
	p := Defaults()
	p.LoadFrac, p.StoreFrac = 0.3, 0.1
	p.FPFrac = 0.4
	tr := (Spec{Name: "mix", Seed: 7, Base: p}).NewTrace()
	var in isa.Inst
	counts := map[isa.OpClass]int{}
	n := 200_000
	for i := 0; i < n; i++ {
		tr.Next(&in)
		counts[in.Class]++
	}
	loadFrac := float64(counts[isa.Load]) / float64(n)
	storeFrac := float64(counts[isa.Store]) / float64(n)
	// Body instructions carry the mix; control ops dilute it slightly.
	if loadFrac < 0.2 || loadFrac > 0.32 {
		t.Errorf("load fraction %.3f, want ~0.26 (0.3 of body)", loadFrac)
	}
	if storeFrac < 0.06 || storeFrac > 0.12 {
		t.Errorf("store fraction %.3f, want ~0.086", storeFrac)
	}
	fp := counts[isa.FPAdd] + counts[isa.FPMult] + counts[isa.FPDiv] + counts[isa.FPSqrt]
	if fp == 0 {
		t.Error("no FP operations generated with FPFrac 0.4")
	}
	if counts[isa.Branch] == 0 || counts[isa.Jump] == 0 {
		t.Error("no control flow generated")
	}
}

func TestPCsWithinCodeFootprint(t *testing.T) {
	p := Defaults()
	p.CodeKB = 16
	tr := (Spec{Name: "pcs", Seed: 9, Base: p}).NewTrace()
	var in isa.Inst
	lo, hi := uint64(codeBase), uint64(codeBase+16*1024)
	for i := 0; i < 100_000; i++ {
		tr.Next(&in)
		if in.PC < lo || in.PC >= hi {
			t.Fatalf("PC %#x outside code region [%#x, %#x)", in.PC, lo, hi)
		}
		if in.PC%4 != 0 {
			t.Fatalf("unaligned PC %#x", in.PC)
		}
	}
}

func TestAddressesInRegions(t *testing.T) {
	p := Defaults()
	p.DataKB = 64
	tr := (Spec{Name: "addr", Seed: 11, Base: p}).NewTrace()
	var in isa.Inst
	for i := 0; i < 100_000; i++ {
		tr.Next(&in)
		if !in.Class.IsMem() {
			continue
		}
		a := in.Addr
		okData := a >= dataBase && a < dataBase+64*1024
		okHot := a >= hotBase && a < hotBase+uint64(p.HotDataKB)*1024
		okStack := a >= stackBase && a < stackBase+stackKB*1024
		if !okData && !okStack && !okHot {
			t.Fatalf("address %#x outside data/stack/hot regions", a)
		}
		if a%8 != 0 && in.Size == 8 {
			t.Fatalf("unaligned dword address %#x", a)
		}
	}
}

func TestBranchesEndBlocks(t *testing.T) {
	tr := testSpec().NewTrace()
	var in isa.Inst
	var prevCtrl bool
	linePCs := map[uint64]bool{}
	for i := 0; i < 50_000; i++ {
		tr.Next(&in)
		if prevCtrl {
			// After control flow, the next instruction starts a block
			// (offset 0 within its line).
			if in.PC%blockSpacing != 0 {
				t.Fatalf("post-branch PC %#x not block-aligned", in.PC)
			}
		}
		prevCtrl = in.Class.IsCtrl()
		if in.Class == isa.Branch && in.Taken && in.Target == in.PC+4 {
			t.Fatalf("taken branch with fall-through target at %#x", in.PC)
		}
		linePCs[in.PC>>6] = true
	}
	if len(linePCs) < 10 {
		t.Errorf("only %d distinct lines touched", len(linePCs))
	}
}

func TestPhasesChangeBehaviour(t *testing.T) {
	small := with(Defaults(), func(p *Params) { p.DataKB = 16; p.FPFrac = 0 })
	big := with(Defaults(), func(p *Params) { p.DataKB = 512; p.FPFrac = 0.5 })
	spec := Spec{
		Name: "phases", Seed: 13, Base: small,
		Phases: []Phase{phase(10_000, small), phase(10_000, big)},
	}
	tr := spec.NewTrace()
	var in isa.Inst
	fpIn := func(n int) int {
		c := 0
		for i := 0; i < n; i++ {
			tr.Next(&in)
			if in.Class.IsFP() {
				c++
			}
		}
		return c
	}
	phase1 := fpIn(10_000)
	phase2 := fpIn(10_000)
	if phase1 >= phase2 {
		t.Errorf("phase FP counts %d vs %d: phase schedule not applied", phase1, phase2)
	}
	// Phases cycle back.
	phase3 := fpIn(10_000)
	if phase3 >= phase2/2 {
		t.Errorf("phase 3 FP count %d did not return to the low phase (phase2=%d)", phase3, phase2)
	}
}

func TestSuiteRegistry(t *testing.T) {
	suite := Suite()
	if len(suite) != 40 {
		t.Fatalf("suite has %d runs, want 40 (Tables 6-8)", len(suite))
	}
	seen := map[string]bool{}
	families := map[string]int{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate run %q", s.Name)
		}
		seen[s.Name] = true
		families[s.Suite]++
		if s.Window == "" || s.Seed == 0 {
			t.Errorf("%s: missing window or seed", s.Name)
		}
		if s.Base.CodeKB <= 0 || s.Base.DataKB <= 0 {
			t.Errorf("%s: implausible footprints %+v", s.Name, s.Base)
		}
	}
	if families["MediaBench"] != 16 {
		t.Errorf("MediaBench has %d runs, want 16", families["MediaBench"])
	}
	if families["Olden"] != 9 {
		t.Errorf("Olden has %d runs, want 9", families["Olden"])
	}
	if families["SPEC2000-Int"]+families["SPEC2000-FP"] != 15 {
		t.Errorf("SPEC2000 has %d runs, want 15", families["SPEC2000-Int"]+families["SPEC2000-FP"])
	}
	if _, ok := ByName("gcc"); !ok {
		t.Error("ByName(gcc) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != 40 {
		t.Error("Names() length mismatch")
	}
}

func TestEveryBenchmarkGenerates(t *testing.T) {
	for _, s := range Suite() {
		tr := s.NewTrace()
		var in isa.Inst
		branches := 0
		for i := 0; i < 5000; i++ {
			tr.Next(&in)
			if in.Class == isa.Branch {
				branches++
			}
		}
		if branches == 0 {
			t.Errorf("%s: no branches in 5000 instructions", s.Name)
		}
	}
}

func TestNoisyBranchesAreNoisy(t *testing.T) {
	quiet := with(Defaults(), func(p *Params) { p.NoiseFrac = 0; p.LoopFrac = 0 })
	noisy := with(Defaults(), func(p *Params) { p.NoiseFrac = 1; p.LoopFrac = 0 })
	flipRate := func(p Params) float64 {
		tr := (Spec{Name: "n", Seed: 21, Base: p}).NewTrace()
		var in isa.Inst
		last := map[uint64]bool{}
		flips, total := 0, 0
		for i := 0; i < 100_000; i++ {
			tr.Next(&in)
			if in.Class != isa.Branch {
				continue
			}
			if prev, ok := last[in.PC]; ok {
				total++
				if prev != in.Taken {
					flips++
				}
			}
			last[in.PC] = in.Taken
		}
		return float64(flips) / float64(total)
	}
	q, n := flipRate(quiet), flipRate(noisy)
	if n < 2*q {
		t.Errorf("noisy flip rate %.3f not well above quiet %.3f", n, q)
	}
	if n < 0.3 {
		t.Errorf("fully-noisy flip rate %.3f, want ~0.5", n)
	}
}
