package cir

import (
	"strings"
	"testing"
	"testing/quick"

	"mpsockit/internal/isa"
	"mpsockit/internal/platform"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("int x = 42; // comment\nx += 0x1f; /* block */ if (x <= 3) {}")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != TokEOF {
			texts = append(texts, tk.Text)
		}
	}
	want := []string{"int", "x", "=", "42", ";", "x", "+=", "0x1f", ";", "if", "(", "x", "<=", "3", ")", "{", "}"}
	if len(texts) != len(want) {
		t.Fatalf("tokens %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("int x = $;"); err == nil {
		t.Fatal("bad character accepted")
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Fatal("unterminated comment accepted")
	}
	if _, err := Lex("#include <stdio.h>"); err == nil {
		t.Fatal("#include accepted")
	}
}

func TestParseSimpleProgram(t *testing.T) {
	prog := MustParse(`
		int g;
		int buf[16];

		int add(int a, int b) {
			return a + b;
		}

		void main() {
			g = add(2, 3);
			buf[0] = g * 2;
		}
	`)
	if len(prog.Globals) != 2 || len(prog.Funcs) != 2 {
		t.Fatalf("parsed %d globals %d funcs", len(prog.Globals), len(prog.Funcs))
	}
	if prog.Globals[1].ArrayN != 16 {
		t.Fatal("array size lost")
	}
	if !prog.Func("add").Ret || prog.Func("main").Ret {
		t.Fatal("return types wrong")
	}
}

func TestParsePragmas(t *testing.T) {
	prog := MustParse(`
		#pragma maps task period=1000 deadline=800 pe=DSP
		void filter() {
			int x = 0;
			x += 1;
		}
	`)
	f := prog.Func("filter")
	if len(f.Pragmas) != 1 {
		t.Fatalf("pragmas = %d", len(f.Pragmas))
	}
	if v, ok := f.Pragma("period"); !ok || v != "1000" {
		t.Fatalf("period pragma = %q %v", v, ok)
	}
	if v, ok := f.Pragma("pe"); !ok || v != "DSP" {
		t.Fatalf("pe pragma = %q %v", v, ok)
	}
	if _, ok := f.Pragma("task"); !ok {
		t.Fatal("flag pragma lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int;",
		"void main() { x = 1; }",                             // undeclared
		"void main() { int x; x = y; }",                      // undeclared rhs
		"void main() { 3 = 4; }",                             // bad lvalue
		"void main() { int a[4]; a = 3; }",                   // whole-array assign
		"void main() { int x; x[0] = 1; }",                   // index scalar
		"void main() { foo(); }",                             // unknown function
		"int f(int a) { return a; } void main() { f(1,2); }", // arity
		"void main() { print(1,2); }",                        // builtin arity
		"#pragma maps bogus=1\nvoid f() {}",                  // unknown pragma key
		"void f() {} void f() {}",                            // duplicate function
		"void main() { if (1) { } else",                      // unterminated
		"#pragma once\nvoid f() {}",                          // non-maps pragma
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad program: %s", src)
		}
	}
}

func TestInterpArithmetic(t *testing.T) {
	prog := MustParse(`
		void main() {
			int x = 10;
			int y = 3;
			print(x + y);
			print(x - y);
			print(x * y);
			print(x / y);
			print(x % y);
			print(x << 2);
			print(x >> 1);
			print(-x);
			print(!0);
			print(~0);
			print(x > y && y > 0);
			print(x < y || y < 0);
			print(min(x, y));
			print(max(x, y));
			print(abs(0 - 7));
			print(clip(99, 0, 31));
		}
	`)
	in, err := NewInterp(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{13, 7, 30, 3, 1, 40, 5, -10, 1, -1, 1, 0, 3, 10, 7, 31}
	if len(in.Output) != len(want) {
		t.Fatalf("output %v, want %v", in.Output, want)
	}
	for i := range want {
		if in.Output[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, in.Output[i], want[i])
		}
	}
}

func TestInterpControlFlow(t *testing.T) {
	prog := MustParse(`
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		void main() {
			int s = 0;
			for (int i = 0; i < 10; i++) {
				s += i;
			}
			print(s);
			int j = 0;
			while (j < 5) { j++; }
			print(j);
			print(fib(10));
		}
	`)
	in, _ := NewInterp(prog)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{45, 5, 55}
	for i := range want {
		if in.Output[i] != want[i] {
			t.Fatalf("output = %v, want %v", in.Output, want)
		}
	}
}

func TestInterpArraysAndGlobals(t *testing.T) {
	prog := MustParse(`
		int data[8];
		int total;
		void main() {
			for (int i = 0; i < 8; i++) {
				data[i] = i * i;
			}
			total = 0;
			for (int i = 0; i < 8; i++) {
				total += data[i];
			}
		}
	`)
	in, _ := NewInterp(prog)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := in.Global("total")
	if got != 140 {
		t.Fatalf("total = %d, want 140", got)
	}
	arr, _ := in.GlobalArray("data")
	if arr[7] != 49 {
		t.Fatalf("data[7] = %d", arr[7])
	}
}

func TestInterpPointers(t *testing.T) {
	prog := MustParse(`
		int a[4];
		void fill(int *p, int n) {
			for (int i = 0; i < n; i++) {
				*(p + i) = i + 100;
			}
		}
		void main() {
			fill(a, 4);
			int *q = &a[2];
			print(*q);
			print(q[1]);
			*q = 7;
			print(a[2]);
		}
	`)
	in, _ := NewInterp(prog)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{102, 103, 7}
	for i := range want {
		if in.Output[i] != want[i] {
			t.Fatalf("output = %v, want %v", in.Output, want)
		}
	}
}

func TestInterpArrayParamAliasing(t *testing.T) {
	prog := MustParse(`
		int buf[4];
		void twice(int b[]) {
			for (int i = 0; i < 4; i++) { b[i] *= 2; }
		}
		void main() {
			for (int i = 0; i < 4; i++) { buf[i] = i + 1; }
			twice(buf);
		}
	`)
	in, _ := NewInterp(prog)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	arr, _ := in.GlobalArray("buf")
	for i, v := range arr {
		if v != int64((i+1)*2) {
			t.Fatalf("buf = %v", arr)
		}
	}
}

func TestInterpChannels(t *testing.T) {
	prog := MustParse(`
		void producer() {
			for (int i = 0; i < 4; i++) { chan_send(1, i * 10); }
		}
		void consumer() {
			for (int i = 0; i < 4; i++) { print(chan_recv(1)); }
		}
		void main() {
			producer();
			consumer();
		}
	`)
	in, _ := NewInterp(prog)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 10, 20, 30}
	for i := range want {
		if in.Output[i] != want[i] {
			t.Fatalf("output = %v", in.Output)
		}
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"div0", "void main() { int x = 1; int y = 0; print(x / y); }"},
		{"oob", "void main() { int a[2]; a[5] = 1; }"},
		{"negidx", "void main() { int a[2]; int i = 0 - 1; a[i] = 1; }"},
		{"emptychan", "void main() { print(chan_recv(9)); }"},
		{"derefint", "void main() { int x = 3; int y = 0; y = x[0]; }"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			continue // some are caught statically, also fine
		}
		in, err := NewInterp(prog)
		if err != nil {
			continue
		}
		if err := in.Run(); err == nil {
			t.Errorf("%s: no runtime error", c.name)
		}
	}
}

func TestInterpStepLimit(t *testing.T) {
	prog := MustParse("void main() { while (1) { } }")
	in, _ := NewInterp(prog)
	in.MaxSteps = 1000
	if err := in.Run(); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("infinite loop not caught: %v", err)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
		int g = 5;
		int buf[8];
		#pragma maps task period=100 pe=DSP
		void work(int *p, int n) {
			int acc = 0;
			for (int i = 0; i < n; i++) {
				if (p[i] > 0) {
					acc += p[i] * 2;
				} else {
					acc -= 1;
				}
			}
			while (acc > 100) { acc /= 2; }
			chan_send(3, acc);
		}
		void main() {
			for (int i = 0; i < 8; i++) { buf[i] = i - 3; }
			work(buf, 8);
			print(chan_recv(3) + g);
		}
	`
	p1 := MustParse(src)
	printed := Print(p1)
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, printed)
	}
	// Semantics preserved: identical interpreter output.
	i1, _ := NewInterp(p1)
	i2, _ := NewInterp(p2)
	if err := i1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := i2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(i1.Output) != len(i2.Output) {
		t.Fatalf("outputs differ: %v vs %v", i1.Output, i2.Output)
	}
	for i := range i1.Output {
		if i1.Output[i] != i2.Output[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
	// Printing must be a fixpoint after one round.
	if Print(p2) != printed {
		t.Fatal("printer not idempotent")
	}
}

func TestPrintPrecedence(t *testing.T) {
	prog := MustParse("void main() { int x = 0; x = (1 + 2) * 3 - 4 / (2 - 1); print(x); }")
	in, _ := NewInterp(prog)
	_ = in.Run()
	if in.Output[0] != 5 {
		t.Fatalf("precedence broken: %d", in.Output[0])
	}
	// Round trip preserves value.
	p2 := MustParse(Print(prog))
	i2, _ := NewInterp(p2)
	_ = i2.Run()
	if i2.Output[0] != 5 {
		t.Fatalf("printed precedence broken: %d", i2.Output[0])
	}
}

func TestCostModelShape(t *testing.T) {
	prog := MustParse(`
		void mulheavy() {
			int s = 0;
			for (int i = 0; i < 100; i++) { s += i * i * i; }
		}
	`)
	cm := NewCostModel(prog)
	fn := prog.Func("mulheavy")
	risc := cm.FuncCycles(fn, 0) // platform.RISC
	dsp0 := NewCostModel(prog)
	dsp := dsp0.FuncCycles(fn, 1) // platform.DSP
	if dsp >= risc {
		t.Fatalf("DSP (%d) should beat RISC (%d) on multiply-heavy code", dsp, risc)
	}
	// Cost scales with trip count.
	small := MustParse(`
		void mulheavy() {
			int s = 0;
			for (int i = 0; i < 10; i++) { s += i * i * i; }
		}
	`)
	cms := NewCostModel(small)
	if cms.FuncCycles(small.Func("mulheavy"), 0)*5 > risc {
		t.Fatal("cost not scaling with trip count")
	}
}

// TestCostWeightsFromISA: on every PE class, a single-statement
// function built around one op kind costs exactly that class's MR32
// timing entry for the op plus the fixed terms around it (operand
// reads, the store), themselves priced from the same table.
func TestCostWeightsFromISA(t *testing.T) {
	prog := MustParse(`
		int g[4];
		void mul(int a, int b) { a = a * b; }
		void div(int a, int b) { a = a / b; }
		void load(int a, int b) { a = g[b]; }
		void branch(int a, int b) { if (a) {} }
	`)
	tables := map[platform.PEClass]*isa.Timing{
		platform.RISC: isa.TimingRISC(),
		platform.DSP:  isa.TimingDSP(),
		platform.VLIW: isa.TimingVLIW(),
		platform.ACC:  isa.TimingACC(),
		platform.CTRL: isa.TimingCTRL(),
	}
	for class, tm := range tables {
		c := tm.Cycles
		alu, mem := c[isa.CostALU], c[isa.CostMem]
		want := map[string]int64{
			"mul":    2*alu + c[isa.CostMul] + mem, // read a, b; multiply; store a
			"div":    2*alu + c[isa.CostDiv] + mem, // read a, b; divide; store a
			"load":   2*alu + mem + mem,            // read g, b; load g[b]; store a
			"branch": alu + c[isa.CostBranch],      // read a; branch over empty arms
		}
		cm := NewCostModel(prog)
		for name, w := range want {
			if got := cm.FuncCycles(prog.Func(name), class); got != w {
				t.Errorf("%s on %s costs %d, want %d", name, class, got, w)
			}
		}
	}
}

func TestTripCount(t *testing.T) {
	prog := MustParse(`
		void f() {
			for (int i = 0; i < 64; i++) { print(i); }
			for (int j = 8; j < 64; j += 8) { print(j); }
		}
	`)
	body := prog.Func("f").Body
	l1 := body.Stmts[0].(*ForStmt)
	l2 := body.Stmts[1].(*ForStmt)
	if TripCount(l1, 0) != 64 {
		t.Fatalf("trip l1 = %d", TripCount(l1, 0))
	}
	if TripCount(l2, 0) != 7 {
		t.Fatalf("trip l2 = %d", TripCount(l2, 0))
	}
	if LoopIndexVar(l1) != "i" || LoopIndexVar(l2) != "j" {
		t.Fatal("loop index vars wrong")
	}
}

// Property: any program assembled from a restricted statement pool
// parses, prints, re-parses, and produces identical output — the
// printer/parser pair is semantics-preserving.
func TestPrintParseProperty(t *testing.T) {
	pool := []string{
		"x = x + %d;",
		"x = x * 2 + y;",
		"y = x % 7 + %d;",
		"if (x > y) { x -= y; } else { y -= 1; }",
		"for (int i = 0; i < %d; i++) { x += i; }",
		"while (y > 0) { y /= 2; }",
		"print(x + y);",
	}
	f := func(choice []uint8, a uint8) bool {
		if len(choice) == 0 {
			return true
		}
		if len(choice) > 8 {
			choice = choice[:8]
		}
		var b strings.Builder
		b.WriteString("void main() { int x = 1; int y = 9;\n")
		for _, ch := range choice {
			tpl := pool[int(ch)%len(pool)]
			if strings.Contains(tpl, "%d") {
				b.WriteString(strings.ReplaceAll(tpl, "%d", "3"))
			} else {
				b.WriteString(tpl)
			}
			b.WriteString("\n")
		}
		b.WriteString("print(x); print(y); }\n")
		p1, err := Parse(b.String())
		if err != nil {
			return false
		}
		p2, err := Parse(Print(p1))
		if err != nil {
			return false
		}
		i1, _ := NewInterp(p1)
		i2, _ := NewInterp(p2)
		if i1.Run() != nil || i2.Run() != nil {
			return false
		}
		if len(i1.Output) != len(i2.Output) {
			return false
		}
		for i := range i1.Output {
			if i1.Output[i] != i2.Output[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
