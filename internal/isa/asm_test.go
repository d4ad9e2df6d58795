package isa

import (
	"encoding/binary"
	"strings"
	"testing"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestAssembleBasic(t *testing.T) {
	p := mustAssemble(t, `
		# a tiny program
		addi r1, r0, 5
		addi r2, r0, 7
		add  r3, r1, r2
		halt
	`)
	if len(p.Image) != 16 {
		t.Fatalf("image size %d, want 16", len(p.Image))
	}
	ins := Decode(p.WordAt(8))
	if ins.Mnemonic() != "add" || ins.Rd != 3 {
		t.Fatalf("word 2 = %v", ins)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
	start:
		addi r1, r0, 10
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	if p.Symbols["loop"] != 4 {
		t.Fatalf("loop at %d, want 4", p.Symbols["loop"])
	}
	br := Decode(p.WordAt(8))
	if br.Mnemonic() != "bne" {
		t.Fatalf("expected bne, got %v", br)
	}
	// Branch from pc=8 back to 4: offset = (4 - 8 - 4)/4 = -2.
	if br.Imm != -2 {
		t.Fatalf("branch offset %d, want -2", br.Imm)
	}
}

func TestAssembleMemAndData(t *testing.T) {
	p := mustAssemble(t, `
		la  r1, data
		lw  r2, 0(r1)
		lw  r3, 4(r1)
		sw  r3, 8(r1)
		halt
	.align 4
	data:
		.word 0x1234, 0xabcd
		.space 4
	`)
	addr := p.Symbols["data"]
	if p.WordAt(addr) != 0x1234 || p.WordAt(addr+4) != 0xabcd {
		t.Fatalf("data words wrong: %x %x", p.WordAt(addr), p.WordAt(addr+4))
	}
}

func TestAssembleLiExpansion(t *testing.T) {
	// Small immediates use one word, large ones two.
	small := mustAssemble(t, "li r1, 100\nhalt")
	if len(small.Image) != 8 {
		t.Fatalf("small li image %d bytes, want 8", len(small.Image))
	}
	big := mustAssemble(t, "li r1, 0x12345678\nhalt")
	if len(big.Image) != 12 {
		t.Fatalf("big li image %d bytes, want 12", len(big.Image))
	}
	lui := Decode(big.WordAt(0))
	ori := Decode(big.WordAt(4))
	if lui.Op != OpLUI || uint32(lui.Imm) != 0x1234 {
		t.Fatalf("lui wrong: %v", lui)
	}
	if ori.Op != OpORI || uint32(ori.Imm) != 0x5678 {
		t.Fatalf("ori wrong: %v", ori)
	}
}

func TestAssembleJalJr(t *testing.T) {
	p := mustAssemble(t, `
		jal fn
		halt
	fn:
		addi r2, r0, 1
		jr ra
	`)
	jal := Decode(p.WordAt(0))
	if jal.Op != OpJAL || jal.Imm != 1 {
		t.Fatalf("jal = %v (imm %d)", jal, jal.Imm)
	}
	jr := Decode(p.WordAt(12))
	if jr.Op != OpR || jr.Fn != FnJR || jr.Rs1 != 31 {
		t.Fatalf("jr = %v", jr)
	}
}

func TestAssembleAsciz(t *testing.T) {
	p := mustAssemble(t, `
	msg: .asciz "hi\n"
	`)
	want := "hi\n\x00"
	if got := string(p.Image[:4]); got != want {
		t.Fatalf("asciz bytes %q, want %q", got, want)
	}
}

func TestAssembleEntry(t *testing.T) {
	p := mustAssemble(t, `
		.entry main
		.word 0
	main:
		halt
	`)
	if p.Entry != p.Symbols["main"] {
		t.Fatalf("entry %d, want %d", p.Entry, p.Symbols["main"])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",            // too few operands
		"addi r1, r2, r3, r4",   // too many
		"lw r1, nope",           // bad memory operand
		"beq r1, r2, undefined", // unknown label
		"add r99, r0, r0",       // bad register
		".org",                  // missing operand
		"dup: nop\ndup: nop",    // duplicate label
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assemble(%q) succeeded, want error", src)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("error %q lacks line info", err)
		}
	}
}

func TestBranchRangeCheck(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("beq r0, r0, far\n")
	for i := 0; i < 40000; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString("far: halt\n")
	if _, err := Assemble(sb.String()); err == nil {
		t.Fatal("out-of-range branch accepted")
	}
}

// WordAt returns the 32-bit word at addr.
func (p *Program) WordAt(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(p.Image[addr:])
}
