package dfa

import (
	"fmt"
	"testing"

	"mpsockit/internal/cir"
)

func TestStmtRW(t *testing.T) {
	prog := cir.MustParse(`
		int a[8];
		int b[8];
		int s;
		void main() {
			for (int i = 0; i < 8; i++) {
				b[i] = a[i] * 2;
			}
			s = b[0] + b[7];
		}
	`)
	body := prog.Func("main").Body
	rw0 := StmtRW(body.Stmts[0])
	if !rw0.Reads["a"] || !rw0.Writes["b"] {
		t.Fatalf("loop RW = %+v", rw0)
	}
	if rw0.Reads["i"] || rw0.Writes["i"] {
		t.Fatal("loop-local index leaked into RW set")
	}
	rw1 := StmtRW(body.Stmts[1])
	if !rw1.Reads["b"] || !rw1.Writes["s"] {
		t.Fatalf("assign RW = %+v", rw1)
	}
}

func TestCompoundAssignReadsTarget(t *testing.T) {
	prog := cir.MustParse(`
		int s;
		void main() { s += 3; }
	`)
	rw := StmtRW(prog.Func("main").Body.Stmts[0])
	if !rw.Reads["s"] || !rw.Writes["s"] {
		t.Fatalf("compound assign RW = %+v", rw)
	}
}

func TestDepGraphPipeline(t *testing.T) {
	prog := cir.MustParse(`
		int in[4];
		int mid[4];
		int out[4];
		void main() {
			for (int i = 0; i < 4; i++) { mid[i] = in[i] + 1; }
			for (int i = 0; i < 4; i++) { out[i] = mid[i] * 2; }
			for (int i = 0; i < 4; i++) { print(out[i]); }
		}
	`)
	g := BuildDepGraph(prog.Func("main"))
	if len(g.Stmts) != 3 {
		t.Fatalf("stmt count %d", len(g.Stmts))
	}
	flows := g.FlowDeps()
	if len(flows) != 2 {
		t.Fatalf("flow deps = %v", flows)
	}
	if flows[0].From != 0 || flows[0].To != 1 || flows[0].Vars[0] != "mid" {
		t.Fatalf("first flow dep wrong: %+v", flows[0])
	}
	if flows[1].From != 1 || flows[1].To != 2 || flows[1].Vars[0] != "out" {
		t.Fatalf("second flow dep wrong: %+v", flows[1])
	}
}

func TestDepGraphWARWAW(t *testing.T) {
	prog := cir.MustParse(`
		int x;
		void main() {
			int y = x + 1;
			x = 5;
			x = 6;
			print(y);
		}
	`)
	g := BuildDepGraph(prog.Func("main"))
	var kinds []string
	for _, e := range g.Edges {
		kinds = append(kinds, fmt.Sprint(e.Kind))
	}
	hasWAR, hasWAW := false, false
	for _, e := range g.Edges {
		if e.Kind == WAR && e.From == 0 && e.To == 1 {
			hasWAR = true
		}
		if e.Kind == WAW && e.From == 1 && e.To == 2 {
			hasWAW = true
		}
	}
	if !hasWAR || !hasWAW {
		t.Fatalf("missing WAR/WAW edges: %v", kinds)
	}
}

func parseLoop(t *testing.T, body string) (*cir.Program, *cir.ForStmt) {
	t.Helper()
	prog := cir.MustParse(body)
	for _, fn := range prog.Funcs {
		if loops := FindLoops(fn); len(loops) > 0 {
			return prog, loops[0]
		}
	}
	t.Fatal("no loop found")
	return nil, nil
}

func TestLoopParallelElementwise(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		int b[64];
		void main() {
			for (int i = 0; i < 64; i++) {
				b[i] = a[i] * a[i];
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if !info.Parallel {
		t.Fatalf("elementwise loop not parallel: %s", info.Reason)
	}
	if info.Trip != 64 {
		t.Fatalf("trip = %d", info.Trip)
	}
	if len(info.ArraysWritten) != 1 || info.ArraysWritten[0] != "b" {
		t.Fatalf("arrays written = %v", info.ArraysWritten)
	}
}

func TestLoopCarriedDependenceRejected(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		void main() {
			for (int i = 0; i < 63; i++) {
				a[i] = a[i + 1] + 1;
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if info.Parallel {
		t.Fatal("loop-carried dependence not detected")
	}
}

func TestLoopReductionRecognized(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		int s;
		void main() {
			s = 0;
			for (int i = 0; i < 64; i++) {
				s += a[i];
			}
			print(s);
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if !info.Parallel {
		t.Fatalf("reduction loop not parallel: %s", info.Reason)
	}
	if len(info.Reductions) != 1 || info.Reductions[0] != "s" {
		t.Fatalf("reductions = %v", info.Reductions)
	}
}

func TestLoopPrivateScalar(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		int b[64];
		int t;
		void main() {
			for (int i = 0; i < 64; i++) {
				t = a[i] * 3;
				b[i] = t + 1;
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if !info.Parallel {
		t.Fatalf("privatizable loop not parallel: %s", info.Reason)
	}
	if len(info.Private) != 1 || info.Private[0] != "t" {
		t.Fatalf("private = %v", info.Private)
	}
}

func TestLoopScalarCarryRejected(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		int prev;
		void main() {
			for (int i = 0; i < 64; i++) {
				a[i] = prev + a[i];
				prev = a[i];
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if info.Parallel {
		t.Fatal("scalar carry not detected")
	}
}

func TestLoopWithPrintRejected(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[8];
		void main() {
			for (int i = 0; i < 8; i++) {
				print(a[i]);
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if info.Parallel {
		t.Fatal("side-effecting loop marked parallel")
	}
}

func TestLoopWithPureCallAccepted(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[8];
		int b[8];
		int square(int x) { return x * x; }
		void main() {
			for (int i = 0; i < 8; i++) {
				b[i] = square(a[i]) + abs(a[i]);
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if !info.Parallel {
		t.Fatalf("pure-call loop rejected: %s", info.Reason)
	}
}

func TestLoopWithGlobalWritingCalleeRejected(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[8];
		int g;
		int bump(int x) { g += 1; return x; }
		void main() {
			for (int i = 0; i < 8; i++) {
				a[i] = bump(i);
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if info.Parallel {
		t.Fatal("global-writing callee not detected")
	}
}

func TestPointerLoopAffine(t *testing.T) {
	prog, loop := parseLoop(t, `
		void scale(int *p, int n) {
			for (int i = 0; i < 64; i++) {
				*(p + i) = *(p + i) * 2;
			}
		}
		void main() {
			int buf[64];
			scale(buf, 64);
		}
	`)
	_ = prog
	info := AnalyzeLoop(prog, loop)
	if !info.Parallel {
		t.Fatalf("affine pointer loop rejected: %s", info.Reason)
	}
}

func TestOffsetMismatchRejected(t *testing.T) {
	prog, loop := parseLoop(t, `
		int a[64];
		void main() {
			for (int i = 0; i < 63; i++) {
				a[i] = a[i] + 1;
				a[i + 1] = 0;
			}
		}
	`)
	info := AnalyzeLoop(prog, loop)
	if info.Parallel {
		t.Fatal("offset mismatch not detected")
	}
}
