package vp

import (
	"testing"

	"mpsockit/internal/isa"
	"mpsockit/internal/sim"
)

const loopSrc = `
loop:
	addi s0, s0, 1
	mul  s1, s0, s0
	j    loop
`

// runLoop executes the compute loop for 1 ms of virtual time at the
// given quantum and returns (instructions retired, kernel events).
func runLoop(t *testing.T, quantum int) (uint64, uint64) {
	t.Helper()
	prog, err := isa.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	cfg := DefaultConfig(1)
	cfg.Quantum = quantum
	v := New(k, cfg)
	v.LoadProgram(0, prog)
	v.Start()
	k.RunUntil(sim.Millisecond)
	return v.Retired(), k.Executed
}

// Temporal decoupling must preserve the amount of work simulated per
// unit of virtual time (up to one quantum of slack at the deadline)
// while dividing the kernel event count by roughly the quantum.
func TestQuantumPreservesProgress(t *testing.T) {
	preciseInstr, preciseEvents := runLoop(t, 1)
	for _, q := range []int{8, 64} {
		qInstr, qEvents := runLoop(t, q)
		diff := int64(qInstr) - int64(preciseInstr)
		if diff < 0 {
			diff = -diff
		}
		// The decoupled core may stop up to one burst short of (or
		// past) the deadline relative to per-instruction stepping.
		if diff > int64(2*q) {
			t.Fatalf("quantum %d retired %d instructions, precise retired %d (slack > %d)",
				q, qInstr, preciseInstr, 2*q)
		}
		if qEvents*uint64(q)/2 > preciseEvents {
			t.Fatalf("quantum %d executed %d events, precise %d: expected ~%dx reduction",
				q, qEvents, preciseEvents, q)
		}
	}
}

// Any installed debugging hook must force precise per-instruction
// stepping regardless of the configured quantum.
func TestDebugHooksForcePrecise(t *testing.T) {
	prog, err := isa.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	cfg := DefaultConfig(1)
	cfg.Quantum = 64
	v := New(k, cfg)
	v.LoadProgram(0, prog)
	steps := 0
	v.OnStep = func(core int, pc uint32) sim.Time {
		steps++
		return 0
	}
	v.Start()
	k.RunUntil(10 * sim.Microsecond)
	if v.Retired() == 0 {
		t.Fatal("nothing executed")
	}
	if uint64(steps) != v.Retired() {
		t.Fatalf("OnStep saw %d instruction boundaries but %d retired: quantum bypassed the hook",
			steps, v.Retired())
	}
}

func benchLoop(b *testing.B, quantum int) {
	prog, err := isa.Assemble(loopSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		cfg := DefaultConfig(1)
		cfg.Quantum = quantum
		v := New(k, cfg)
		v.LoadProgram(0, prog)
		v.Start()
		k.RunUntil(sim.Millisecond)
	}
}

// 1 ms of virtual time on one 100 MHz core, per-instruction stepping
// versus a 64-instruction time quantum.
func BenchmarkVP1msPrecise(b *testing.B)   { benchLoop(b, 1) }
func BenchmarkVP1msQuantum64(b *testing.B) { benchLoop(b, 64) }

// Identical configurations must replay identically — event counts,
// retired instructions and architectural outcomes — with pooling and
// decoupling on.
func TestQuantumRunsAreDeterministic(t *testing.T) {
	for _, q := range []int{1, 32} {
		i1, e1 := runLoop(t, q)
		i2, e2 := runLoop(t, q)
		if i1 != i2 || e1 != e2 {
			t.Fatalf("quantum %d: run1 (%d instr, %d events) != run2 (%d instr, %d events)",
				q, i1, e1, i2, e2)
		}
	}
}
