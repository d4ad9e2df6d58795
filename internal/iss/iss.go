// Package iss implements the MR32 instruction-set simulator: a
// cycle-approximate interpreter over the encodings in internal/isa.
// One CPU instance models one processing element; the virtual
// platform (internal/vp) composes several CPUs with peripherals on
// the discrete-event kernel. The ISS is deliberately side-effect-free
// outside its Bus, so a suspended system can be inspected without
// disturbing it — the mechanism behind the paper's section VII
// deterministic, non-intrusive debugging claims.
package iss

import (
	"encoding/binary"
	"fmt"

	"mpsockit/internal/isa"
)

// Bus is the CPU's window onto memory and memory-mapped peripherals.
// The core ID travels with every access so protection and watchpoint
// layers can attribute it.
type Bus interface {
	Load(core int, addr uint32, size int) (uint32, error)
	Store(core int, addr uint32, val uint32, size int) error
}

// RAM is a flat little-endian memory implementing Bus without
// protection — the single-core test fixture.
type RAM struct {
	Data []byte
}

// NewRAM returns a RAM of the given size.
func NewRAM(size int) *RAM { return &RAM{Data: make([]byte, size)} }

// Load implements Bus.
func (r *RAM) Load(core int, addr uint32, size int) (uint32, error) {
	if int(addr)+size > len(r.Data) {
		return 0, fmt.Errorf("iss: load out of bounds at 0x%08x", addr)
	}
	var v uint32
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint32(r.Data[int(addr)+i])
	}
	return v, nil
}

// Store implements Bus.
func (r *RAM) Store(core int, addr uint32, val uint32, size int) error {
	if int(addr)+size > len(r.Data) {
		return fmt.Errorf("iss: store out of bounds at 0x%08x", addr)
	}
	for i := 0; i < size; i++ {
		r.Data[int(addr)+i] = byte(val)
		val >>= 8
	}
	return nil
}

// LoadProgram copies a program image into RAM at offset 0.
func (r *RAM) LoadProgram(p *isa.Program) {
	copy(r.Data, p.Image)
}

// Registers by convention (MIPS-flavoured).
const (
	RegZero = 0
	RegV0   = 2
	RegV1   = 3
	RegA0   = 4
	RegA1   = 5
	RegA2   = 6
	RegA3   = 7
	RegK0   = 26
	RegK1   = 27
	RegSP   = 29
	RegRA   = 31
)

// CPU is one MR32 hardware thread.
type CPU struct {
	ID   int
	Regs [32]uint32
	PC   uint32
	Bus  Bus
	// Timing is the per-PE-class cycle table every instruction is
	// charged from; it must not be nil.
	Timing *isa.Timing

	Halted bool
	Err    error

	// Cycles and Instret accumulate consumed cycles and retired
	// instructions.
	Cycles  uint64
	Instret uint64

	// Interrupt state: when enabled and pending, the CPU saves the
	// next PC in k1 and vectors to IntVector before the next fetch.
	IntEnabled bool
	IntPending bool
	IntVector  uint32
	// IntTaken counts taken interrupts.
	IntTaken uint64

	// LocalFetch, when non-nil, backs instruction fetches for
	// addresses [0, len(LocalFetch)) directly, bypassing the Bus
	// interface call. Owners whose bus routes that address range to
	// hook-free local memory (the virtual platform's per-core local
	// stores) set it; fetches outside the window still go through the
	// Bus, so faults and memory-mapped regions behave identically.
	LocalFetch []byte

	// dcache is the direct-mapped decode cache, indexed by word PC.
	// Entries are validated against the fetched raw word (Instr.Raw),
	// so self-modifying code can never observe a stale decode.
	dcache []isa.Instr

	// OnEcall handles ECALL instructions; the service number travels
	// in v0 and arguments in a0..a3. It returns extra cycles charged.
	// A nil handler makes ECALL illegal.
	OnEcall func(c *CPU) int64
	// MemPenalty, when set, charges extra cycles per data access (the
	// cache model hook).
	MemPenalty func(addr uint32, write bool) int64
	// Trace, when set, observes every retired instruction.
	Trace func(c *CPU, pc uint32, ins isa.Instr)
}

// dcacheSize is the decode cache's entry count (power of two); 512
// entries cover 2 KiB of straight-line code.
const dcacheSize = 512

// New returns a CPU with the given ID wired to bus.
func New(id int, bus Bus, timing *isa.Timing) *CPU {
	return &CPU{ID: id, Bus: bus, Timing: timing, dcache: make([]isa.Instr, dcacheSize)}
}

// RaiseInterrupt marks an interrupt pending (level-triggered until
// taken).
func (c *CPU) RaiseInterrupt() { c.IntPending = true }

func (c *CPU) fail(err error) int64 {
	c.Err = err
	c.Halted = true
	return 1
}

// Step executes one instruction (or takes one pending interrupt) and
// returns the cycles it consumed. A halted CPU consumes nothing.
func (c *CPU) Step() int64 {
	if c.Halted {
		return 0
	}
	if c.IntEnabled && c.IntPending {
		c.IntPending = false
		c.IntEnabled = false
		c.Regs[RegK1] = c.PC
		c.PC = c.IntVector
		c.IntTaken++
		c.Cycles += 4
		return 4
	}
	var raw uint32
	if end := c.PC + 4; c.LocalFetch != nil && end > c.PC && end <= uint32(len(c.LocalFetch)) {
		raw = binary.LittleEndian.Uint32(c.LocalFetch[c.PC:])
	} else {
		var err error
		raw, err = c.Bus.Load(c.ID, c.PC, 4)
		if err != nil {
			return c.fail(fmt.Errorf("fetch at 0x%08x: %w", c.PC, err))
		}
	}
	if len(c.dcache) == 0 { // zero-value CPU constructed without New
		c.dcache = make([]isa.Instr, dcacheSize)
	}
	var ins isa.Instr
	if d := &c.dcache[(c.PC>>2)&(dcacheSize-1)]; d.Raw == raw && d.Valid {
		ins = *d
	} else {
		ins = isa.Decode(raw)
		if !ins.Valid {
			return c.fail(fmt.Errorf("illegal instruction 0x%08x at 0x%08x", raw, c.PC))
		}
		*d = ins
	}
	if c.Trace != nil {
		c.Trace(c, c.PC, ins)
	}
	cycles := c.Timing.Cost(ins)
	nextPC := c.PC + 4

	reg := func(i int) uint32 { return c.Regs[i] }
	setReg := func(i int, v uint32) {
		if i != RegZero {
			c.Regs[i] = v
		}
	}

	switch ins.Op {
	case isa.OpR:
		a, b := reg(ins.Rs1), reg(ins.Rs2)
		var v uint32
		switch ins.Fn {
		case isa.FnADD:
			v = a + b
		case isa.FnSUB:
			v = a - b
		case isa.FnMUL:
			v = uint32(int32(a) * int32(b))
		case isa.FnDIV:
			if b == 0 {
				v = 0xffffffff
			} else {
				v = uint32(int32(a) / int32(b))
			}
		case isa.FnREM:
			if b == 0 {
				v = a
			} else {
				v = uint32(int32(a) % int32(b))
			}
		case isa.FnAND:
			v = a & b
		case isa.FnOR:
			v = a | b
		case isa.FnXOR:
			v = a ^ b
		case isa.FnSLL:
			v = a << (b & 31)
		case isa.FnSRL:
			v = a >> (b & 31)
		case isa.FnSRA:
			v = uint32(int32(a) >> (b & 31))
		case isa.FnSLT:
			if int32(a) < int32(b) {
				v = 1
			}
		case isa.FnSLTU:
			if a < b {
				v = 1
			}
		case isa.FnJR:
			nextPC = a
		case isa.FnJALR:
			setReg(ins.Rd, c.PC+4)
			nextPC = a
		}
		if ins.Fn != isa.FnJR && ins.Fn != isa.FnJALR {
			setReg(ins.Rd, v)
		}
	case isa.OpADDI:
		setReg(ins.Rd, reg(ins.Rs1)+uint32(ins.Imm))
	case isa.OpANDI:
		setReg(ins.Rd, reg(ins.Rs1)&uint32(ins.Imm))
	case isa.OpORI:
		setReg(ins.Rd, reg(ins.Rs1)|uint32(ins.Imm))
	case isa.OpXORI:
		setReg(ins.Rd, reg(ins.Rs1)^uint32(ins.Imm))
	case isa.OpSLTI:
		var v uint32
		if int32(reg(ins.Rs1)) < ins.Imm {
			v = 1
		}
		setReg(ins.Rd, v)
	case isa.OpSLLI:
		setReg(ins.Rd, reg(ins.Rs1)<<(uint32(ins.Imm)&31))
	case isa.OpSRLI:
		setReg(ins.Rd, reg(ins.Rs1)>>(uint32(ins.Imm)&31))
	case isa.OpSRAI:
		setReg(ins.Rd, uint32(int32(reg(ins.Rs1))>>(uint32(ins.Imm)&31)))
	case isa.OpLUI:
		setReg(ins.Rd, uint32(ins.Imm)<<16)
	case isa.OpLW, isa.OpLB:
		addr := reg(ins.Rs1) + uint32(ins.Imm)
		size := 4
		if ins.Op == isa.OpLB {
			size = 1
		}
		v, err := c.Bus.Load(c.ID, addr, size)
		if err != nil {
			return c.fail(err)
		}
		if ins.Op == isa.OpLB && v&0x80 != 0 {
			v |= 0xffffff00
		}
		setReg(ins.Rd, v)
		if c.MemPenalty != nil {
			cycles += c.MemPenalty(addr, false)
		}
	case isa.OpSW, isa.OpSB:
		addr := reg(ins.Rs1) + uint32(ins.Imm)
		size := 4
		if ins.Op == isa.OpSB {
			size = 1
		}
		if err := c.Bus.Store(c.ID, addr, reg(ins.Rd), size); err != nil {
			return c.fail(err)
		}
		if c.MemPenalty != nil {
			cycles += c.MemPenalty(addr, true)
		}
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		a, b := reg(ins.Rd), reg(ins.Rs1)
		taken := false
		switch ins.Op {
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = int32(a) < int32(b)
		case isa.OpBGE:
			taken = int32(a) >= int32(b)
		}
		if taken {
			nextPC = uint32(int64(c.PC) + 4 + int64(ins.Imm)*4)
		}
	case isa.OpJ:
		nextPC = uint32(int64(c.PC) + 4 + int64(ins.Imm)*4)
	case isa.OpJAL:
		setReg(RegRA, c.PC+4)
		nextPC = uint32(int64(c.PC) + 4 + int64(ins.Imm)*4)
	case isa.OpECALL:
		if c.OnEcall == nil {
			return c.fail(fmt.Errorf("ecall with no handler at 0x%08x", c.PC))
		}
		c.PC = nextPC // handler may overwrite (e.g. interrupt return)
		cycles += c.OnEcall(c)
		c.Cycles += uint64(cycles)
		c.Instret++
		return cycles
	case isa.OpHALT:
		c.Halted = true
	}

	c.PC = nextPC
	c.Cycles += uint64(cycles)
	c.Instret++
	return cycles
}

// StepBurst executes up to max instructions back-to-back and returns
// the number retired together with the cycles they consumed. It is the
// temporally-decoupled fast path of the virtual platform: the caller
// accounts the whole burst's time as one kernel event instead of one
// per instruction. The burst ends early when the CPU halts (including
// on an execution fault).
func (c *CPU) StepBurst(max int) (retired int, cycles int64) {
	for retired < max && !c.Halted {
		cy := c.Step()
		if cy <= 0 {
			cy = 1
		}
		cycles += cy
		retired++
	}
	return retired, cycles
}

// Run steps until the CPU halts or maxInstr instructions retire. It
// returns the number of instructions retired in this call.
func (c *CPU) Run(maxInstr uint64) uint64 {
	start := c.Instret
	for !c.Halted && c.Instret-start < maxInstr {
		c.Step()
	}
	return c.Instret - start
}
