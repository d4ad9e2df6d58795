// Package isa defines MR32, the toolkit's 32-bit RISC instruction
// set. Every processing element in the platform executes MR32 — the
// homogeneous-ISA position of the paper's section II-A ("uniform ISA
// guarantees that any piece of software can be executed on any of the
// processor cores") — while per-PE-class timing tables preserve the
// heterogeneous performance characteristics that sections IV and V
// target. The same binary runs on the fast functional simulator and
// the cycle-approximate virtual platform, which is the property the
// paper's section VII debugging methodology depends on.
//
// MR32 is MIPS-flavoured: 32 general registers (r0 hard-wired to
// zero), fixed 32-bit instructions in R/I/J formats, word-addressed
// branches relative to the delay-free next PC.
package isa

import "fmt"

// Primary opcodes (bits 31..26).
const (
	OpR uint32 = iota // R-format; funct field selects the operation
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpLUI
	OpLW
	OpSW
	OpLB
	OpSB
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpJ
	OpJAL
	OpSLLI
	OpSRLI
	OpSRAI
	OpECALL
	OpHALT
	numOps
)

// R-format function codes (bits 10..0).
const (
	FnADD uint32 = iota
	FnSUB
	FnMUL
	FnDIV
	FnREM
	FnAND
	FnOR
	FnXOR
	FnSLL
	FnSRL
	FnSRA
	FnSLT
	FnSLTU
	FnJR
	FnJALR
	numFns
)

// Instr is a decoded MR32 instruction.
type Instr struct {
	Op    uint32
	Fn    uint32 // valid when Op == OpR
	Rd    int
	Rs1   int
	Rs2   int
	Imm   int32 // sign- or zero-extended per opcode semantics
	Raw   uint32
	Valid bool
}

// Encode packs an instruction into its 32-bit representation.
func Encode(ins Instr) uint32 {
	switch ins.Op {
	case OpR:
		return ins.Op<<26 | uint32(ins.Rd&31)<<21 | uint32(ins.Rs1&31)<<16 |
			uint32(ins.Rs2&31)<<11 | (ins.Fn & 0x7ff)
	case OpJ, OpJAL:
		return ins.Op<<26 | (uint32(ins.Imm) & 0x03ffffff)
	case OpECALL, OpHALT:
		return ins.Op << 26
	default: // I-format
		return ins.Op<<26 | uint32(ins.Rd&31)<<21 | uint32(ins.Rs1&31)<<16 |
			(uint32(ins.Imm) & 0xffff)
	}
}

// zeroExtImm opcodes treat the 16-bit immediate as unsigned.
func zeroExtImm(op uint32) bool {
	switch op {
	case OpANDI, OpORI, OpXORI, OpLUI, OpSLLI, OpSRLI, OpSRAI:
		return true
	}
	return false
}

// Decode unpacks a 32-bit word. Invalid encodings yield Valid=false.
func Decode(raw uint32) Instr {
	op := raw >> 26
	ins := Instr{Op: op, Raw: raw, Valid: op < numOps}
	switch op {
	case OpR:
		ins.Rd = int(raw >> 21 & 31)
		ins.Rs1 = int(raw >> 16 & 31)
		ins.Rs2 = int(raw >> 11 & 31)
		ins.Fn = raw & 0x7ff
		if ins.Fn >= numFns {
			ins.Valid = false
		}
	case OpJ, OpJAL:
		v := raw & 0x03ffffff
		// sign-extend 26-bit field
		if v&0x02000000 != 0 {
			v |= 0xfc000000
		}
		ins.Imm = int32(v)
	case OpECALL, OpHALT:
		// no operands
	default:
		ins.Rd = int(raw >> 21 & 31)
		ins.Rs1 = int(raw >> 16 & 31)
		imm := raw & 0xffff
		if !zeroExtImm(op) && imm&0x8000 != 0 {
			imm |= 0xffff0000
		}
		ins.Imm = int32(imm)
	}
	return ins
}

var opNames = [...]string{
	"r", "addi", "andi", "ori", "xori", "slti", "lui",
	"lw", "sw", "lb", "sb",
	"beq", "bne", "blt", "bge",
	"j", "jal", "slli", "srli", "srai", "ecall", "halt",
}

var fnNames = [...]string{
	"add", "sub", "mul", "div", "rem", "and", "or", "xor",
	"sll", "srl", "sra", "slt", "sltu", "jr", "jalr",
}

// Mnemonic returns the assembly mnemonic for the instruction.
func (ins Instr) Mnemonic() string {
	if !ins.Valid {
		return "illegal"
	}
	if ins.Op == OpR {
		return fnNames[ins.Fn]
	}
	return opNames[ins.Op]
}

// String disassembles the instruction.
func (ins Instr) String() string {
	if !ins.Valid {
		return fmt.Sprintf(".word 0x%08x", ins.Raw)
	}
	switch ins.Op {
	case OpR:
		switch ins.Fn {
		case FnJR:
			return fmt.Sprintf("jr r%d", ins.Rs1)
		case FnJALR:
			return fmt.Sprintf("jalr r%d, r%d", ins.Rd, ins.Rs1)
		default:
			return fmt.Sprintf("%s r%d, r%d, r%d", ins.Mnemonic(), ins.Rd, ins.Rs1, ins.Rs2)
		}
	case OpLW, OpLB:
		return fmt.Sprintf("%s r%d, %d(r%d)", ins.Mnemonic(), ins.Rd, ins.Imm, ins.Rs1)
	case OpSW, OpSB:
		return fmt.Sprintf("%s r%d, %d(r%d)", ins.Mnemonic(), ins.Rd, ins.Imm, ins.Rs1)
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		return fmt.Sprintf("%s r%d, r%d, %+d", ins.Mnemonic(), ins.Rd, ins.Rs1, ins.Imm)
	case OpJ, OpJAL:
		return fmt.Sprintf("%s %+d", ins.Mnemonic(), ins.Imm)
	case OpLUI:
		return fmt.Sprintf("lui r%d, 0x%x", ins.Rd, uint32(ins.Imm)&0xffff)
	case OpECALL, OpHALT:
		return ins.Mnemonic()
	default:
		return fmt.Sprintf("%s r%d, r%d, %d", ins.Mnemonic(), ins.Rd, ins.Rs1, ins.Imm)
	}
}

// CostClass buckets instructions for the timing tables.
type CostClass int

// Cost classes.
const (
	CostALU CostClass = iota
	CostMul
	CostDiv
	CostMem
	CostBranch
	CostJump
	CostSys
	numCostClasses
)

// Class returns the instruction's cost class.
func (ins Instr) Class() CostClass {
	switch ins.Op {
	case OpR:
		switch ins.Fn {
		case FnMUL:
			return CostMul
		case FnDIV, FnREM:
			return CostDiv
		case FnJR, FnJALR:
			return CostJump
		default:
			return CostALU
		}
	case OpLW, OpSW, OpLB, OpSB:
		return CostMem
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		return CostBranch
	case OpJ, OpJAL:
		return CostJump
	case OpECALL, OpHALT:
		return CostSys
	default:
		return CostALU
	}
}

// Timing is a per-cost-class cycle table, one per PE class. These
// tables are the only place a class's instruction costs are written:
// the ISS charges them per instruction, the MAPS cost model
// (internal/cir) prices C statements with them, and the dse vp tier
// derives its refinement loop's cycle counts from TimingRISC.
type Timing struct {
	Name   string
	Cycles [numCostClasses]int64
}

// Cost returns the cycle count of one instruction under this timing.
func (t *Timing) Cost(ins Instr) int64 {
	return t.Cycles[ins.Class()]
}

// TimingRISC is a scalar in-order control core.
func TimingRISC() *Timing {
	return &Timing{Name: "RISC", Cycles: [numCostClasses]int64{
		CostALU: 1, CostMul: 3, CostDiv: 18, CostMem: 2, CostBranch: 2, CostJump: 2, CostSys: 4,
	}}
}

// TimingDSP models a MAC-optimized signal processor: single-cycle
// multiply, fast memory pipes.
func TimingDSP() *Timing {
	return &Timing{Name: "DSP", Cycles: [numCostClasses]int64{
		CostALU: 1, CostMul: 1, CostDiv: 8, CostMem: 1, CostBranch: 3, CostJump: 2, CostSys: 4,
	}}
}

// TimingVLIW models a wide media engine: cheap arithmetic streams,
// expensive control flow.
func TimingVLIW() *Timing {
	return &Timing{Name: "VLIW", Cycles: [numCostClasses]int64{
		CostALU: 1, CostMul: 2, CostDiv: 12, CostMem: 1, CostBranch: 4, CostJump: 4, CostSys: 6,
	}}
}

// TimingACC models a slow-clock fixed-function helper.
func TimingACC() *Timing {
	return &Timing{Name: "ACC", Cycles: [numCostClasses]int64{
		CostALU: 1, CostMul: 1, CostDiv: 4, CostMem: 1, CostBranch: 2, CostJump: 2, CostSys: 2,
	}}
}

// TimingCTRL models the host/control processor (the PPE of a
// Cell-like SoC): slow multiply and divide, cheap branches. Its jump
// and sys entries copy TimingRISC's; nothing reads them yet, because
// no virtual-platform core runs as a CTRL class.
func TimingCTRL() *Timing {
	return &Timing{Name: "CTRL", Cycles: [numCostClasses]int64{
		CostALU: 1, CostMul: 4, CostDiv: 20, CostMem: 2, CostBranch: 1, CostJump: 2, CostSys: 4,
	}}
}
