package vp

import (
	"testing"

	"mpsockit/internal/isa"
	"mpsockit/internal/sim"
)

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleCoreConsole(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(1))
	v.LoadProgram(0, assemble(t, `
		addi v0, r0, 1      # print service
		addi a0, r0, 42
		ecall
		addi a0, r0, 7
		ecall
		halt
	`))
	v.Start()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("did not halt")
	}
	if len(v.Console[0]) != 2 || v.Console[0][0] != 42 || v.Console[0][1] != 7 {
		t.Fatalf("console = %v", v.Console[0])
	}
}

func TestCoreIDRegister(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(3))
	src := `
		li   t0, 0xF0000000
		lw   a0, 0(t0)       # core id
		addi v0, r0, 1
		ecall
		halt
	`
	p := assemble(t, src)
	for c := 0; c < 3; c++ {
		v.LoadProgram(c, p)
	}
	v.Start()
	v.RunUntilHalted(sim.Second)
	for c := 0; c < 3; c++ {
		if len(v.Console[c]) != 1 || v.Console[c][0] != uint32(c) {
			t.Fatalf("core %d printed %v", c, v.Console[c])
		}
	}
}

func TestSharedMemoryVisibleAcrossCores(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(2))
	// Core 0 writes a flag+value; core 1 spins for the flag then
	// prints the value.
	v.LoadProgram(0, assemble(t, `
		li  t0, 0x40000000
		li  t1, 1234
		sw  t1, 4(t0)       # value
		addi t2, r0, 1
		sw  t2, 0(t0)       # flag
		halt
	`))
	v.LoadProgram(1, assemble(t, `
		li  t0, 0x40000000
	spin:
		lw  t1, 0(t0)
		beq t1, r0, spin
		lw  a0, 4(t0)
		addi v0, r0, 1
		ecall
		halt
	`))
	v.Start()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("did not halt")
	}
	if len(v.Console[1]) != 1 || v.Console[1][0] != 1234 {
		t.Fatalf("core1 console = %v", v.Console[1])
	}
}

func TestMailboxWithInterrupt(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(2))
	// Core 0 sends 0x2A to core 1's mailbox; core 1 takes the IRQ and
	// prints the payload.
	v.LoadProgram(0, assemble(t, `
		li  t0, 0xF0000020    # MBOX_SEND
		li  t1, 0x1002A       # dest=1, payload 0x2A
		sw  t1, 0(t0)
		halt
	`))
	v.LoadProgram(1, assemble(t, `
		.entry main
	handler:
		li   t0, 0xF0000024   # MBOX_RECV
		lw   a0, 0(t0)
		addi v0, r0, 1
		ecall                 # print payload
		li   t0, 0xF0000010   # HALT_ALL (end test from handler)
		sw   r0, 0(t0)
		addi v0, r0, 14
		ecall                 # iret
	main:
	spin:
		j    spin
	`))
	cpu1 := v.CPUs[1]
	cpu1.IntVector = 0 // handler at image start
	prog := assemble(t, "nop")
	_ = prog
	cpu1.IntEnabled = true
	v.Start()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("did not halt")
	}
	if len(v.Console[1]) != 1 || v.Console[1][0] != 0x2A {
		t.Fatalf("console = %v", v.Console[1])
	}
	if cpu1.IntTaken != 1 {
		t.Fatalf("interrupts taken = %d", cpu1.IntTaken)
	}
}

func TestTimerInterruptCount(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(1))
	// Program a 1000-cycle timer; handler increments s1; main spins
	// until 5 interrupts then halts.
	v.LoadProgram(0, assemble(t, `
		.entry main
	handler:
		addi s1, s1, 1
		addi v0, r0, 14
		ecall                 # iret
	main:
		li   t0, 0xF0000008   # TIMER_PERIOD
		li   t1, 1000
		sw   t1, 0(t0)
		addi t2, r0, 5
	spin:
		blt  s1, t2, spin
		li   t0, 0xF0000008
		sw   r0, 0(t0)        # stop timer
		halt
	`))
	v.CPUs[0].IntVector = 0
	v.CPUs[0].IntEnabled = true
	v.Start()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("did not halt")
	}
	if v.CPUs[0].Regs[17] != 5 {
		t.Fatalf("handler count = %d", v.CPUs[0].Regs[17])
	}
	if v.timerCount[0] < 5 {
		t.Fatalf("timer fired %d times", v.timerCount[0])
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(2))
	// Both cores do guarded increments; the final counter must be
	// exact (the hardware semaphore works).
	src := `
		li   s0, 0x40000000
		li   s1, 50
		li   s2, 0xF0000100
	loop:
	acq:
		lw   t1, 0(s2)
		beq  t1, r0, acq
		lw   t0, 0(s0)
		addi t0, t0, 1
		sw   t0, 0(s0)
		sw   r0, 0(s2)
		addi s1, s1, -1
		bne  s1, r0, loop
		halt
	`
	p := assemble(t, src)
	v.LoadProgram(0, p)
	v.LoadProgram(1, p)
	v.Start()
	if !v.RunUntilHalted(10 * sim.Second) {
		t.Fatal("did not halt")
	}
	var final uint32
	for i := 3; i >= 0; i-- {
		final = final<<8 | uint32(v.Shared[i])
	}
	if final != 100 {
		t.Fatalf("guarded counter = %d, want 100", final)
	}
}

func TestSuspendIsNonIntrusive(t *testing.T) {
	run := func(withSuspend bool) []uint32 {
		k := sim.NewKernel()
		v := New(k, DefaultConfig(2))
		src := `
			li   s1, 20
			li   s2, 0
		loop:
			add  s2, s2, s1
			move a0, s2
			addi v0, r0, 1
			ecall
			addi s1, s1, -1
			bne  s1, r0, loop
			halt
		`
		p := assemble(t, src)
		v.LoadProgram(0, p)
		v.LoadProgram(1, p)
		v.Start()
		if withSuspend {
			// Suspend and resume repeatedly mid-run.
			for i := 0; i < 10; i++ {
				k.RunFor(3 * sim.Microsecond)
				v.Suspend()
				// While suspended, nothing observable changes.
				k.RunFor(5 * sim.Microsecond)
				v.Resume()
			}
		}
		v.RunUntilHalted(sim.Second)
		return append(append([]uint32{}, v.Console[0]...), v.Console[1]...)
	}
	plain := run(false)
	suspended := run(true)
	if len(plain) != len(suspended) {
		t.Fatalf("suspension changed output length: %d vs %d", len(plain), len(suspended))
	}
	for i := range plain {
		if plain[i] != suspended[i] {
			t.Fatalf("suspension changed output at %d: %d vs %d", i, plain[i], suspended[i])
		}
	}
}

func TestStepCoreWhileSuspended(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(2))
	p := assemble(t, `
	loop:
		addi s2, s2, 1
		j    loop
	`)
	v.LoadProgram(0, p)
	v.LoadProgram(1, p)
	v.Start()
	k.RunFor(5 * sim.Microsecond)
	v.Suspend()
	k.RunFor(sim.Microsecond)
	before0 := v.CPUs[0].Regs[18]
	before1 := v.CPUs[1].Regs[18]
	// Step core 0 twice: only it advances.
	if err := v.StepCore(0); err != nil {
		t.Fatal(err)
	}
	if err := v.StepCore(0); err != nil {
		t.Fatal(err)
	}
	if v.CPUs[0].Regs[18] == before0 && v.CPUs[0].PC == 0 {
		t.Fatal("stepped core did not advance")
	}
	if v.CPUs[1].Regs[18] != before1 {
		t.Fatal("non-stepped core advanced during suspension")
	}
	if err := v.StepCore(0); err != nil {
		t.Fatal(err)
	}
	// Stepping without suspension is an error.
	v.Resume()
	if err := v.StepCore(0); err == nil {
		t.Fatal("StepCore allowed while running")
	}
}

func TestTraceRecordsPeripherals(t *testing.T) {
	k := sim.NewKernel()
	v := New(k, DefaultConfig(2))
	v.LoadProgram(0, assemble(t, `
		li  t0, 0xF0000020
		li  t1, 0x10005
		sw  t1, 0(t0)       # mbox send -> core 1
		halt
	`))
	v.LoadProgram(1, assemble(t, `halt`))
	v.Start()
	v.RunUntilHalted(sim.Second)
	if len(v.Trace.OfKind(4)) == 0 { // trace.IRQ
		t.Fatal("no IRQ trace events")
	}
	found := false
	for _, e := range v.Trace.Events() {
		if e.Detail == "mbox-send->1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mailbox send not traced:\n%s", v.Trace.Dump())
	}
}
