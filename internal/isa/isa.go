// Package isa defines the synthetic RISC instruction set used by the
// adaptive GALS simulator.
//
// The paper evaluates on Alpha binaries run under SimpleScalar. This
// reproduction is trace driven: workload models (package workload) emit
// deterministic streams of dynamic instructions in this ISA, and the core
// pipeline model (package core) consumes them. The ISA therefore carries
// exactly the information the timing model needs: operation class, logical
// register operands, memory address and size for loads/stores, and control
// flow (target, outcome) for branches.
package isa

import "fmt"

// OpClass categorizes instructions by the functional unit and domain that
// execute them. The integer domain executes IntALU/IntMult/IntDiv and all
// branches as well as address generation for memory operations; the floating
// point domain executes FPAdd/FPMult/FPDiv/FPSqrt; loads and stores occupy
// the load/store domain after address generation.
type OpClass uint8

const (
	// IntALU is a single-cycle integer operation (add, logical, shift,
	// compare).
	IntALU OpClass = iota
	// IntMult is a pipelined integer multiply.
	IntMult
	// IntDiv is an unpipelined integer divide.
	IntDiv
	// FPAdd is a pipelined floating-point add/subtract/convert.
	FPAdd
	// FPMult is a pipelined floating-point multiply.
	FPMult
	// FPDiv is an unpipelined floating-point divide.
	FPDiv
	// FPSqrt is an unpipelined floating-point square root.
	FPSqrt
	// Load reads memory through the load/store domain.
	Load
	// Store writes memory through the load/store domain.
	Store
	// Branch is a conditional branch resolved in the integer domain.
	Branch
	// Jump is an unconditional direct jump (always taken, never
	// mispredicted, resolved at decode).
	Jump
	// NumOpClasses is the number of distinct operation classes.
	NumOpClasses = int(Jump) + 1
)

var opClassNames = [NumOpClasses]string{
	"IntALU", "IntMult", "IntDiv", "FPAdd", "FPMult", "FPDiv", "FPSqrt",
	"Load", "Store", "Branch", "Jump",
}

// String returns the mnemonic name of the operation class.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// IsFP reports whether the class executes in the floating-point domain.
func (c OpClass) IsFP() bool {
	return c == FPAdd || c == FPMult || c == FPDiv || c == FPSqrt
}

// IsMem reports whether the class occupies the load/store queue.
func (c OpClass) IsMem() bool { return c == Load || c == Store }

// IsCtrl reports whether the class redirects control flow.
func (c OpClass) IsCtrl() bool { return c == Branch || c == Jump }

// Register file shape. The paper's machine has 32 logical integer and 32
// logical floating-point registers (Alpha), which the ILP tracking hardware
// in Section 3.2 depends on (4-6 bit timestamps on 64 logical registers).
const (
	// NumIntRegs is the number of logical integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of logical floating-point registers.
	NumFPRegs = 32
	// RegNone marks an absent register operand.
	RegNone = Reg(0xFF)
)

// Reg names a logical register. Integer registers are 0..31 and floating
// point registers are 32..63; RegNone marks an unused operand slot.
type Reg uint8

// IntReg returns the integer register with index i (0 <= i < NumIntRegs).
func IntReg(i int) Reg { return Reg(i) }

// FPReg returns the floating-point register with index i (0 <= i < NumFPRegs).
func FPReg(i int) Reg { return Reg(NumIntRegs + i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r != RegNone && r >= NumIntRegs }

// Valid reports whether r names a register at all.
func (r Reg) Valid() bool { return r != RegNone }

// String returns the assembly-style name of the register.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// Inst is one dynamic instruction in a workload trace.
//
// PC and Addr are byte addresses. Dynamic control-flow information (Taken,
// Target) records the trace's actual outcome; the branch predictor in the
// simulated front end produces its own prediction and the pipeline charges a
// misprediction penalty when they disagree.
type Inst struct {
	// PC is the instruction's address.
	PC uint64
	// Class selects the functional unit and domain.
	Class OpClass
	// Dest is the destination register, or RegNone.
	Dest Reg
	// Src1 and Src2 are source registers, or RegNone.
	Src1, Src2 Reg
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Size is the access size in bytes for loads and stores.
	Size uint8
	// Taken is the actual outcome for branches (always true for jumps).
	Taken bool
	// Target is the actual next PC for taken control transfers.
	Target uint64
}

// Latency returns the execution latency of the class in cycles of its
// executing domain, matching the Alpha-21264-flavoured values used by the
// MCD simulator (memory classes return the address-generation latency; the
// cache hierarchy adds the access time).
func (c OpClass) Latency() int {
	switch c {
	case IntALU, Branch, Jump:
		return 1
	case IntMult:
		return 3
	case IntDiv:
		return 20
	case FPAdd:
		return 2
	case FPMult:
		return 4
	case FPDiv:
		return 12
	case FPSqrt:
		return 24
	case Load, Store:
		return 1 // address generation
	}
	return 1
}

// Pipelined reports whether the functional unit for the class accepts a new
// operation every cycle (true) or is busy for the full latency (false).
func (c OpClass) Pipelined() bool {
	switch c {
	case IntDiv, FPDiv, FPSqrt:
		return false
	}
	return true
}

// String formats the instruction for debugging.
func (in Inst) String() string {
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%#x: %s %s,%s [%#x]", in.PC, in.Class, in.Dest, in.Src1, in.Addr)
	case in.Class.IsCtrl():
		return fmt.Sprintf("%#x: %s taken=%v -> %#x", in.PC, in.Class, in.Taken, in.Target)
	default:
		return fmt.Sprintf("%#x: %s %s,%s,%s", in.PC, in.Class, in.Dest, in.Src1, in.Src2)
	}
}
