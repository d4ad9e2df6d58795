package iss

import (
	"testing"

	"mpsockit/internal/isa"
)

func run(t *testing.T, src string, maxInstr uint64) *CPU {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := NewRAM(1 << 16)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	c.PC = p.Entry
	c.Run(maxInstr)
	if c.Err != nil {
		t.Fatalf("cpu error: %v", c.Err)
	}
	if !c.Halted {
		t.Fatalf("cpu did not halt within %d instructions", maxInstr)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
		addi r1, r0, 21
		addi r2, r0, 2
		mul  r3, r1, r2     # 42
		addi r4, r0, -7
		div  r5, r3, r4     # -6
		rem  r6, r3, r4     # 0
		sub  r7, r3, r1     # 21
		halt
	`, 100)
	if got := int32(c.Regs[3]); got != 42 {
		t.Fatalf("mul result %d, want 42", got)
	}
	if got := int32(c.Regs[5]); got != -6 {
		t.Fatalf("div result %d, want -6", got)
	}
	if got := int32(c.Regs[6]); got != 0 {
		t.Fatalf("rem result %d, want 0", got)
	}
	if got := int32(c.Regs[7]); got != 21 {
		t.Fatalf("sub result %d, want 21", got)
	}
}

func TestDivideByZeroDefined(t *testing.T) {
	c := run(t, `
		addi r1, r0, 5
		div  r2, r1, r0
		rem  r3, r1, r0
		halt
	`, 10)
	if c.Regs[2] != 0xffffffff {
		t.Fatalf("div by zero = %#x, want all ones", c.Regs[2])
	}
	if c.Regs[3] != 5 {
		t.Fatalf("rem by zero = %d, want dividend", c.Regs[3])
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..100 = 5050
	c := run(t, `
		addi r1, r0, 100   # i
		addi r2, r0, 0     # sum
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 1000)
	if c.Regs[2] != 5050 {
		t.Fatalf("sum = %d, want 5050", c.Regs[2])
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
		la   r1, buf
		li   r2, 0x11223344
		sw   r2, 0(r1)
		lw   r3, 0(r1)
		lb   r4, 0(r1)     # little-endian low byte: 0x44
		lb   r5, 3(r1)     # 0x11
		addi r6, r0, -1
		sb   r6, 4(r1)
		lb   r7, 4(r1)     # sign-extended -1
		halt
	buf:
		.space 8
	`, 100)
	if c.Regs[3] != 0x11223344 {
		t.Fatalf("lw = %#x", c.Regs[3])
	}
	if c.Regs[4] != 0x44 || c.Regs[5] != 0x11 {
		t.Fatalf("lb bytes = %#x %#x", c.Regs[4], c.Regs[5])
	}
	if int32(c.Regs[7]) != -1 {
		t.Fatalf("lb sign extension = %d, want -1", int32(c.Regs[7]))
	}
}

func TestFunctionCall(t *testing.T) {
	// double(x) via jal/jr; result in v0.
	c := run(t, `
		addi a0, r0, 21
		jal  double
		move s0, v0
		halt
	double:
		add  v0, a0, a0
		jr   ra
	`, 100)
	if c.Regs[16] != 42 {
		t.Fatalf("call result %d, want 42", c.Regs[16])
	}
}

func TestRecursiveFactorial(t *testing.T) {
	// Stack-based recursive factorial(6) = 720.
	c := run(t, `
		li   sp, 0x8000
		addi a0, r0, 6
		jal  fact
		halt
	fact:
		addi sp, sp, -8
		sw   ra, 4(sp)
		sw   a0, 0(sp)
		addi t0, r0, 1
		bge  t0, a0, base    # if 1 >= n
		addi a0, a0, -1
		jal  fact
		lw   a0, 0(sp)
		mul  v0, v0, a0
		j    done
	base:
		addi v0, r0, 1
	done:
		lw   ra, 4(sp)
		addi sp, sp, 8
		jr   ra
	`, 10000)
	if c.Regs[RegV0] != 720 {
		t.Fatalf("fact(6) = %d, want 720", c.Regs[RegV0])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := run(t, `
		addi r0, r0, 99
		addi r1, r0, 1
		halt
	`, 10)
	if c.Regs[0] != 0 {
		t.Fatalf("r0 = %d, want 0", c.Regs[0])
	}
	if c.Regs[1] != 1 {
		t.Fatalf("r1 = %d", c.Regs[1])
	}
}

func TestShiftsAndCompares(t *testing.T) {
	c := run(t, `
		addi r1, r0, 1
		slli r2, r1, 10     # 1024
		addi r3, r0, -16
		srai r4, r3, 2      # -4
		srli r5, r3, 28     # 15
		slt  r6, r3, r1     # -16 < 1 -> 1
		sltu r7, r3, r1     # 0xfffffff0 < 1 unsigned -> 0
		halt
	`, 100)
	if c.Regs[2] != 1024 {
		t.Fatalf("slli = %d", c.Regs[2])
	}
	if int32(c.Regs[4]) != -4 {
		t.Fatalf("srai = %d", int32(c.Regs[4]))
	}
	if c.Regs[5] != 15 {
		t.Fatalf("srli = %d", c.Regs[5])
	}
	if c.Regs[6] != 1 || c.Regs[7] != 0 {
		t.Fatalf("slt/sltu = %d/%d", c.Regs[6], c.Regs[7])
	}
}

func TestEcallHandler(t *testing.T) {
	p, err := isa.Assemble(`
		addi v0, r0, 1     # service 1
		addi a0, r0, 77
		ecall
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	ram := NewRAM(1 << 12)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	var printed []uint32
	c.OnEcall = func(c *CPU) int64 {
		if c.Regs[RegV0] == 1 {
			printed = append(printed, c.Regs[RegA0])
		}
		return 10
	}
	c.Run(100)
	if len(printed) != 1 || printed[0] != 77 {
		t.Fatalf("ecall saw %v", printed)
	}
}

func TestEcallWithoutHandlerFaults(t *testing.T) {
	p, _ := isa.Assemble("ecall\nhalt")
	ram := NewRAM(1 << 12)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	c.Run(10)
	if c.Err == nil {
		t.Fatal("ecall without handler should fault")
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	ram := NewRAM(64)
	ram.Data[3] = 0xff // garbage opcode
	c := New(0, ram, isa.TimingRISC())
	c.Run(10)
	if c.Err == nil || !c.Halted {
		t.Fatal("illegal instruction should halt with error")
	}
}

func TestInterruptDelivery(t *testing.T) {
	p, err := isa.Assemble(`
		.entry main
	handler:
		addi s1, s1, 1      # count interrupts
		jr   k1             # return (k1 holds interrupted PC)
	main:
	spin:
		addi s0, s0, 1
		blt  s0, t9, spin
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	ram := NewRAM(1 << 12)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	c.PC = p.Entry
	c.Regs[25] = 1000 // t9: spin limit
	c.IntVector = p.Symbols["handler"]
	c.IntEnabled = true
	for i := 0; i < 200 && !c.Halted; i++ {
		if i == 50 {
			c.RaiseInterrupt()
		}
		c.Step()
	}
	if c.Regs[17] != 1 {
		t.Fatalf("handler ran %d times, want 1", c.Regs[17])
	}
	if c.IntTaken != 1 {
		t.Fatalf("IntTaken = %d", c.IntTaken)
	}
}

func TestTimingAccumulation(t *testing.T) {
	src := `
		addi r1, r0, 1
		mul  r2, r1, r1
		halt
	`
	p, _ := isa.Assemble(src)
	runWith := func(tm *isa.Timing) uint64 {
		ram := NewRAM(1 << 12)
		ram.LoadProgram(p)
		c := New(0, ram, tm)
		c.Run(10)
		return c.Cycles
	}
	risc := runWith(isa.TimingRISC())
	dsp := runWith(isa.TimingDSP())
	if dsp >= risc {
		t.Fatalf("DSP (%d cycles) should beat RISC (%d) on multiply code", dsp, risc)
	}
}

func TestMemPenaltyHook(t *testing.T) {
	p, _ := isa.Assemble(`
		la r1, buf
		lw r2, 0(r1)
		halt
	buf: .word 5
	`)
	ram := NewRAM(1 << 12)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	base := func() uint64 {
		cc := New(0, ram, isa.TimingRISC())
		cc.Run(10)
		return cc.Cycles
	}()
	c.MemPenalty = func(addr uint32, write bool) int64 { return 50 }
	c.Run(10)
	if c.Cycles != base+50 {
		t.Fatalf("cycles with penalty %d, want %d", c.Cycles, base+50)
	}
}

func TestTraceHook(t *testing.T) {
	p, _ := isa.Assemble("addi r1, r0, 1\nhalt")
	ram := NewRAM(256)
	ram.LoadProgram(p)
	c := New(0, ram, isa.TimingRISC())
	var pcs []uint32
	c.Trace = func(c *CPU, pc uint32, ins isa.Instr) { pcs = append(pcs, pc) }
	c.Run(10)
	if len(pcs) != 2 || pcs[0] != 0 || pcs[1] != 4 {
		t.Fatalf("trace = %v", pcs)
	}
}
