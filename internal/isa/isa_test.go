package isa

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpR, Fn: FnADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpR, Fn: FnMUL, Rd: 31, Rs1: 30, Rs2: 29},
		{Op: OpR, Fn: FnJR, Rs1: 31},
		{Op: OpADDI, Rd: 5, Rs1: 6, Imm: -42},
		{Op: OpADDI, Rd: 5, Rs1: 6, Imm: 32767},
		{Op: OpORI, Rd: 7, Rs1: 8, Imm: 0xffff},
		{Op: OpLUI, Rd: 9, Imm: 0xabcd},
		{Op: OpLW, Rd: 10, Rs1: 11, Imm: -8},
		{Op: OpSW, Rd: 12, Rs1: 13, Imm: 100},
		{Op: OpBEQ, Rd: 1, Rs1: 2, Imm: -5},
		{Op: OpJ, Imm: -1000},
		{Op: OpJAL, Imm: 1 << 20},
		{Op: OpECALL},
		{Op: OpHALT},
	}
	for _, ins := range cases {
		got := Decode(Encode(ins))
		if !got.Valid {
			t.Fatalf("%v decoded invalid", ins)
		}
		if got.Op != ins.Op {
			t.Fatalf("op mismatch: %v vs %v", got.Op, ins.Op)
		}
		if ins.Op == OpR && got.Fn != ins.Fn {
			t.Fatalf("fn mismatch for %v", ins)
		}
		switch ins.Op {
		case OpECALL, OpHALT:
		case OpJ, OpJAL:
			if got.Imm != ins.Imm {
				t.Fatalf("imm mismatch: %d vs %d", got.Imm, ins.Imm)
			}
		case OpR:
			if got.Rd != ins.Rd || got.Rs1 != ins.Rs1 || got.Rs2 != ins.Rs2 {
				t.Fatalf("register mismatch for %v: %+v", ins, got)
			}
		default:
			if got.Rd != ins.Rd || got.Rs1 != ins.Rs1 {
				t.Fatalf("register mismatch for %v: %+v", ins, got)
			}
			wantImm := ins.Imm
			if zeroExtImm(ins.Op) {
				wantImm = int32(uint32(ins.Imm) & 0xffff)
			}
			if got.Imm != wantImm {
				t.Fatalf("imm mismatch for %v: %d vs %d", ins, got.Imm, wantImm)
			}
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	if Decode(uint32(numOps) << 26).Valid {
		t.Fatal("out-of-range opcode decoded as valid")
	}
	if Decode(uint32(OpR)<<26 | numFns).Valid {
		t.Fatal("out-of-range funct decoded as valid")
	}
}

// Property: decoding any 32-bit word never panics, and valid decodes
// re-encode to a word that decodes identically (canonicalization).
func TestDecodeTotalProperty(t *testing.T) {
	f := func(raw uint32) bool {
		ins := Decode(raw)
		if !ins.Valid {
			return true
		}
		again := Decode(Encode(ins))
		return again.Valid && again.Op == ins.Op && again.Fn == ins.Fn &&
			again.Rd == ins.Rd && again.Rs1 == ins.Rs1 && again.Imm == ins.Imm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseReg(t *testing.T) {
	cases := map[string]int{
		"r0": 0, "r31": 31, "zero": 0, "ra": 31, "sp": 29, "a0": 4, "t3": 11, "v0": 2,
	}
	for s, want := range cases {
		got, err := ParseReg(s)
		if err != nil || got != want {
			t.Fatalf("ParseReg(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, bad := range []string{"r32", "x5", "", "r-1"} {
		if _, err := ParseReg(bad); err == nil {
			t.Fatalf("ParseReg(%q) accepted", bad)
		}
	}
}

func TestTimingTables(t *testing.T) {
	mul := Instr{Op: OpR, Fn: FnMUL, Valid: true}
	if TimingDSP().Cost(mul) >= TimingRISC().Cost(mul) {
		t.Fatal("DSP multiply should be cheaper than RISC multiply")
	}
	branch := Instr{Op: OpBNE, Valid: true}
	if TimingVLIW().Cost(branch) <= TimingDSP().Cost(branch) {
		t.Fatal("VLIW branches should cost more than DSP branches")
	}
	if TimingCTRL().Cost(branch) >= TimingRISC().Cost(branch) {
		t.Fatal("CTRL branches should be cheaper than RISC branches")
	}
	div := Instr{Op: OpR, Fn: FnDIV, Valid: true}
	if TimingCTRL().Cost(div) <= TimingRISC().Cost(div) {
		t.Fatal("CTRL divide should cost more than RISC divide")
	}
	for _, tm := range []*Timing{TimingRISC(), TimingDSP(), TimingVLIW(), TimingACC(), TimingCTRL()} {
		for cc := CostClass(0); cc < numCostClasses; cc++ {
			if tm.Cycles[cc] <= 0 {
				t.Fatalf("%s has non-positive cost for class %d", tm.Name, cc)
			}
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: OpR, Fn: FnADD, Rd: 1, Rs1: 2, Rs2: 3, Valid: true}, "add r1, r2, r3"},
		{Instr{Op: OpLW, Rd: 4, Rs1: 29, Imm: -8, Valid: true}, "lw r4, -8(r29)"},
		{Instr{Op: OpHALT, Valid: true}, "halt"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
