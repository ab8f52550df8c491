package isa

import (
	"testing"
	"testing/quick"
)

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		c             OpClass
		fp, mem, ctrl bool
	}{
		{IntALU, false, false, false},
		{IntMult, false, false, false},
		{IntDiv, false, false, false},
		{FPAdd, true, false, false},
		{FPMult, true, false, false},
		{FPDiv, true, false, false},
		{FPSqrt, true, false, false},
		{Load, false, true, false},
		{Store, false, true, false},
		{Branch, false, false, true},
		{Jump, false, false, true},
	}
	for _, c := range cases {
		if c.c.IsFP() != c.fp || c.c.IsMem() != c.mem || c.c.IsCtrl() != c.ctrl {
			t.Errorf("%v: predicates fp=%v mem=%v ctrl=%v unexpected",
				c.c, c.c.IsFP(), c.c.IsMem(), c.c.IsCtrl())
		}
	}
}

func TestLatenciesPositive(t *testing.T) {
	for c := OpClass(0); int(c) < NumOpClasses; c++ {
		if c.Latency() < 1 {
			t.Errorf("%v latency %d < 1", c, c.Latency())
		}
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
	// Unpipelined units are exactly the long-latency dividers.
	for _, c := range []OpClass{IntDiv, FPDiv, FPSqrt} {
		if c.Pipelined() {
			t.Errorf("%v should be unpipelined", c)
		}
	}
	for _, c := range []OpClass{IntALU, IntMult, FPAdd, FPMult, Load, Store, Branch} {
		if !c.Pipelined() {
			t.Errorf("%v should be pipelined", c)
		}
	}
}

func TestRegisterHelpers(t *testing.T) {
	f := func(raw uint8) bool {
		i := int(raw % NumIntRegs)
		r := IntReg(i)
		fr := FPReg(i)
		return r.Valid() && !r.IsFP() && fr.Valid() && fr.IsFP() &&
			int(fr)-NumIntRegs == i && int(r) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if RegNone.Valid() {
		t.Error("RegNone reported valid")
	}
	if RegNone.String() != "-" {
		t.Errorf("RegNone string %q", RegNone.String())
	}
	if IntReg(3).String() != "r3" || FPReg(4).String() != "f4" {
		t.Error("register naming broken")
	}
}

func TestInstString(t *testing.T) {
	ld := Inst{PC: 0x400000, Class: Load, Dest: IntReg(1), Src1: IntReg(2), Addr: 0x1000}
	br := Inst{PC: 0x400004, Class: Branch, Taken: true, Target: 0x400100}
	alu := Inst{PC: 0x400008, Class: IntALU, Dest: IntReg(3), Src1: IntReg(1), Src2: IntReg(2)}
	for _, s := range []string{ld.String(), br.String(), alu.String()} {
		if s == "" {
			t.Error("empty instruction rendering")
		}
	}
}
