package isa

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Program is the output of the assembler: a flat little-endian memory
// image plus the symbol table.
type Program struct {
	Image   []byte
	Entry   uint32
	Symbols map[string]uint32
	// Source maps word addresses back to source line numbers for the
	// debugger's source-level views.
	Source map[uint32]int
}

// regAliases maps register names to numbers; MIPS-style conventions.
var regAliases = map[string]int{
	"zero": 0, "at": 1, "v0": 2, "v1": 3,
	"a0": 4, "a1": 5, "a2": 6, "a3": 7,
	"t0": 8, "t1": 9, "t2": 10, "t3": 11, "t4": 12, "t5": 13, "t6": 14, "t7": 15,
	"s0": 16, "s1": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
	"t8": 24, "t9": 25, "k0": 26, "k1": 27,
	"gp": 28, "sp": 29, "fp": 30, "ra": 31,
}

// ParseReg resolves a register name (r0..r31 or an alias).
func ParseReg(s string) (int, error) {
	s = strings.TrimSuffix(strings.ToLower(s), ",")
	if n, ok := regAliases[s]; ok {
		return n, nil
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < 32 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("isa: bad register %q", s)
}

type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.line, e.msg) }

// item is one assembled unit: an instruction (possibly pending label
// resolution) or literal data.
type item struct {
	addr  uint32
	line  int
	data  []byte // literal bytes, when instruction == nil
	emit  func(symbols map[string]uint32) (uint32, error)
	words int
}

// Assembler state for a single Assemble call.
type assembler struct {
	pc      uint32
	items   []item
	symbols map[string]uint32
	maxAddr uint32
	entry   uint32
	hasEnt  bool
}

// Assemble translates MR32 assembly source into a Program. Two passes:
// the first lays out addresses and collects labels, the second
// resolves label references.
//
// Syntax: one instruction, directive or label per line; comments start
// with '#' or ';'. Directives: .org N, .word v[,v...], .byte, .space N,
// .asciz "s", .align N, .entry label.
func Assemble(src string) (*Program, error) {
	a := &assembler{symbols: map[string]uint32{}}
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		if err := a.doLine(line, raw); err != nil {
			return nil, err
		}
	}
	// Pass 2: resolve and emit.
	size := a.maxAddr
	if size < 4 {
		size = 4
	}
	img := make([]byte, size)
	source := map[uint32]int{}
	for _, it := range a.items {
		if it.emit != nil {
			w, err := it.emit(a.symbols)
			if err != nil {
				return nil, &asmError{it.line, err.Error()}
			}
			binary.LittleEndian.PutUint32(img[it.addr:], w)
			source[it.addr] = it.line
		} else {
			copy(img[it.addr:], it.data)
		}
	}
	entry := a.entry
	return &Program{Image: img, Entry: entry, Symbols: a.symbols, Source: source}, nil
}

func stripComment(s string) string {
	for _, c := range []string{"#", ";"} {
		if i := strings.Index(s, c); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

func (a *assembler) bump(bytes uint32) {
	a.pc += bytes
	if a.pc > a.maxAddr {
		a.maxAddr = a.pc
	}
}

func (a *assembler) doLine(line int, raw string) error {
	s := stripComment(raw)
	if s == "" {
		return nil
	}
	// Labels (possibly followed by an instruction on the same line).
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if label == "" || strings.ContainsAny(label, " \t") {
			return &asmError{line, "malformed label"}
		}
		if _, dup := a.symbols[label]; dup {
			return &asmError{line, "duplicate label " + label}
		}
		a.symbols[label] = a.pc
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	fields := strings.Fields(strings.ReplaceAll(s, ",", " , "))
	// Re-split into mnemonic + comma-separated operands.
	mn := strings.ToLower(fields[0])
	var ops []string
	cur := ""
	for _, f := range fields[1:] {
		if f == "," {
			ops = append(ops, cur)
			cur = ""
		} else if cur == "" {
			cur = f
		} else {
			cur += " " + f
		}
	}
	if cur != "" {
		ops = append(ops, cur)
	}
	if strings.HasPrefix(mn, ".") {
		return a.directive(line, mn, ops, s)
	}
	return a.instruction(line, mn, ops)
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	return strconv.ParseInt(s, 0, 64)
}

func (a *assembler) directive(line int, mn string, ops []string, full string) error {
	switch mn {
	case ".org":
		if len(ops) != 1 {
			return &asmError{line, ".org needs one operand"}
		}
		v, err := parseInt(ops[0])
		if err != nil {
			return &asmError{line, err.Error()}
		}
		a.pc = uint32(v)
		if a.pc > a.maxAddr {
			a.maxAddr = a.pc
		}
	case ".word":
		for _, op := range ops {
			op := op
			addr := a.pc
			a.items = append(a.items, item{addr: addr, line: line,
				emit: func(sym map[string]uint32) (uint32, error) {
					if v, err := parseInt(op); err == nil {
						return uint32(v), nil
					}
					if v, ok := sym[strings.TrimSpace(op)]; ok {
						return v, nil
					}
					return 0, fmt.Errorf("bad .word operand %q", op)
				}})
			a.bump(4)
		}
	case ".byte":
		var data []byte
		for _, op := range ops {
			v, err := parseInt(op)
			if err != nil {
				return &asmError{line, err.Error()}
			}
			data = append(data, byte(v))
		}
		a.items = append(a.items, item{addr: a.pc, line: line, data: data})
		a.bump(uint32(len(data)))
	case ".space":
		if len(ops) != 1 {
			return &asmError{line, ".space needs one operand"}
		}
		v, err := parseInt(ops[0])
		if err != nil || v < 0 {
			return &asmError{line, "bad .space size"}
		}
		a.bump(uint32(v))
	case ".asciz":
		i := strings.Index(full, "\"")
		j := strings.LastIndex(full, "\"")
		if i < 0 || j <= i {
			return &asmError{line, ".asciz needs a quoted string"}
		}
		str, err := strconv.Unquote(full[i : j+1])
		if err != nil {
			return &asmError{line, err.Error()}
		}
		data := append([]byte(str), 0)
		a.items = append(a.items, item{addr: a.pc, line: line, data: data})
		a.bump(uint32(len(data)))
	case ".align":
		if len(ops) != 1 {
			return &asmError{line, ".align needs one operand"}
		}
		v, err := parseInt(ops[0])
		if err != nil || v <= 0 {
			return &asmError{line, "bad alignment"}
		}
		mask := uint32(v) - 1
		a.pc = (a.pc + mask) &^ mask
		if a.pc > a.maxAddr {
			a.maxAddr = a.pc
		}
	case ".entry":
		if len(ops) != 1 {
			return &asmError{line, ".entry needs a label"}
		}
		lbl := strings.TrimSpace(ops[0])
		a.hasEnt = true
		a.items = append(a.items, item{addr: 0, line: line,
			emit: func(sym map[string]uint32) (uint32, error) {
				v, ok := sym[lbl]
				if !ok {
					return 0, fmt.Errorf("unknown entry label %q", lbl)
				}
				a.entry = v
				return 0, nil
			}})
	default:
		return &asmError{line, "unknown directive " + mn}
	}
	return nil
}

// fixed emits a fully resolved instruction.
func (a *assembler) fixed(line int, ins Instr) {
	w := Encode(ins)
	a.items = append(a.items, item{addr: a.pc, line: line,
		emit: func(map[string]uint32) (uint32, error) { return w, nil }})
	a.bump(4)
}

// withLabel emits an instruction whose immediate depends on a label.
func (a *assembler) withLabel(line int, resolve func(sym map[string]uint32) (Instr, error)) {
	addr := a.pc
	a.items = append(a.items, item{addr: addr, line: line,
		emit: func(sym map[string]uint32) (uint32, error) {
			ins, err := resolve(sym)
			if err != nil {
				return 0, err
			}
			return Encode(ins), nil
		}})
	a.bump(4)
}

func immOrLabel(op string, sym map[string]uint32) (int64, error) {
	if v, err := parseInt(op); err == nil {
		return v, nil
	}
	if v, ok := sym[strings.TrimSpace(op)]; ok {
		return int64(v), nil
	}
	return 0, fmt.Errorf("bad immediate %q", op)
}

// parseMemOperand parses "off(rs)".
func parseMemOperand(s string) (off int64, reg int, err error) {
	i := strings.Index(s, "(")
	j := strings.LastIndex(s, ")")
	if i < 0 || j <= i {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:i])
	if offStr == "" {
		offStr = "0"
	}
	off, err = parseInt(offStr)
	if err != nil {
		return 0, 0, err
	}
	reg, err = ParseReg(strings.TrimSpace(s[i+1 : j]))
	return off, reg, err
}

var rFormat = map[string]uint32{
	"add": FnADD, "sub": FnSUB, "mul": FnMUL, "div": FnDIV, "rem": FnREM,
	"and": FnAND, "or": FnOR, "xor": FnXOR,
	"sll": FnSLL, "srl": FnSRL, "sra": FnSRA, "slt": FnSLT, "sltu": FnSLTU,
}

var iFormat = map[string]uint32{
	"addi": OpADDI, "andi": OpANDI, "ori": OpORI, "xori": OpXORI,
	"slti": OpSLTI, "slli": OpSLLI, "srli": OpSRLI, "srai": OpSRAI,
}

var branches = map[string]uint32{
	"beq": OpBEQ, "bne": OpBNE, "blt": OpBLT, "bge": OpBGE,
}

func (a *assembler) instruction(line int, mn string, ops []string) error {
	bad := func(msg string) error { return &asmError{line, mn + ": " + msg} }
	need := func(n int) error {
		if len(ops) != n {
			return bad(fmt.Sprintf("want %d operands, got %d", n, len(ops)))
		}
		return nil
	}
	regs := func() ([]int, error) {
		out := make([]int, len(ops))
		for i, op := range ops {
			r, err := ParseReg(op)
			if err != nil {
				return nil, bad(err.Error())
			}
			out[i] = r
		}
		return out, nil
	}

	switch {
	case rFormat[mn] != 0 || mn == "add":
		if err := need(3); err != nil {
			return err
		}
		r, err := regs()
		if err != nil {
			return err
		}
		a.fixed(line, Instr{Op: OpR, Fn: rFormat[mn], Rd: r[0], Rs1: r[1], Rs2: r[2]})
	case iFormat[mn] != 0:
		if err := need(3); err != nil {
			return err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		rs, err := ParseReg(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		imm := ops[2]
		a.withLabel(line, func(sym map[string]uint32) (Instr, error) {
			v, err := immOrLabel(imm, sym)
			if err != nil {
				return Instr{}, err
			}
			return Instr{Op: iFormat[mn], Rd: rd, Rs1: rs, Imm: int32(v)}, nil
		})
	case mn == "lui":
		if err := need(2); err != nil {
			return err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		a.fixed(line, Instr{Op: OpLUI, Rd: rd, Imm: int32(v & 0xffff)})
	case mn == "lw" || mn == "lb":
		if err := need(2); err != nil {
			return err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		off, rs, err := parseMemOperand(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		op := OpLW
		if mn == "lb" {
			op = OpLB
		}
		a.fixed(line, Instr{Op: op, Rd: rd, Rs1: rs, Imm: int32(off)})
	case mn == "sw" || mn == "sb":
		if err := need(2); err != nil {
			return err
		}
		rv, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		off, rs, err := parseMemOperand(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		op := OpSW
		if mn == "sb" {
			op = OpSB
		}
		// Store value travels in the Rd field.
		a.fixed(line, Instr{Op: op, Rd: rv, Rs1: rs, Imm: int32(off)})
	case branches[mn] != 0:
		if err := need(3); err != nil {
			return err
		}
		r1, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		r2, err := ParseReg(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		target := ops[2]
		pc := a.pc
		a.withLabel(line, func(sym map[string]uint32) (Instr, error) {
			t, err := immOrLabel(target, sym)
			if err != nil {
				return Instr{}, err
			}
			off := (t - int64(pc) - 4) / 4
			if off < -(1<<15) || off >= 1<<15 {
				return Instr{}, fmt.Errorf("branch target out of range")
			}
			return Instr{Op: branches[mn], Rd: r1, Rs1: r2, Imm: int32(off)}, nil
		})
	case mn == "j" || mn == "jal":
		if err := need(1); err != nil {
			return err
		}
		op := OpJ
		if mn == "jal" {
			op = OpJAL
		}
		target := ops[0]
		pc := a.pc
		a.withLabel(line, func(sym map[string]uint32) (Instr, error) {
			t, err := immOrLabel(target, sym)
			if err != nil {
				return Instr{}, err
			}
			off := (t - int64(pc) - 4) / 4
			return Instr{Op: op, Imm: int32(off)}, nil
		})
	case mn == "jr":
		if err := need(1); err != nil {
			return err
		}
		rs, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		a.fixed(line, Instr{Op: OpR, Fn: FnJR, Rs1: rs})
	case mn == "jalr":
		if err := need(2); err != nil {
			return err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		rs, err := ParseReg(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		a.fixed(line, Instr{Op: OpR, Fn: FnJALR, Rd: rd, Rs1: rs})
	case mn == "ecall":
		a.fixed(line, Instr{Op: OpECALL})
	case mn == "halt":
		a.fixed(line, Instr{Op: OpHALT})
	case mn == "nop":
		a.fixed(line, Instr{Op: OpR, Fn: FnADD}) // add r0,r0,r0
	case mn == "move":
		if err := need(2); err != nil {
			return err
		}
		r, err := regs()
		if err != nil {
			return err
		}
		a.fixed(line, Instr{Op: OpADDI, Rd: r[0], Rs1: r[1]})
	case mn == "li", mn == "la":
		if err := need(2); err != nil {
			return err
		}
		rd, err := ParseReg(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		src := ops[1]
		if v, err := parseInt(src); err == nil && v >= -(1<<15) && v < 1<<15 {
			a.fixed(line, Instr{Op: OpADDI, Rd: rd, Imm: int32(v)})
			return nil
		}
		// Two-word expansion: lui + ori. Label values resolve in pass 2.
		a.withLabel(line, func(sym map[string]uint32) (Instr, error) {
			v, err := immOrLabel(src, sym)
			if err != nil {
				return Instr{}, err
			}
			return Instr{Op: OpLUI, Rd: rd, Imm: int32(uint32(v) >> 16)}, nil
		})
		a.withLabel(line, func(sym map[string]uint32) (Instr, error) {
			v, err := immOrLabel(src, sym)
			if err != nil {
				return Instr{}, err
			}
			return Instr{Op: OpORI, Rd: rd, Rs1: rd, Imm: int32(uint32(v) & 0xffff)}, nil
		})
	default:
		return bad("unknown mnemonic")
	}
	return nil
}
