package debug

import (
	"fmt"
	"strings"
	"testing"

	"mpsockit/internal/isa"
	"mpsockit/internal/sim"
	"mpsockit/internal/vp"
)

func platformWith(t *testing.T, cores int, src string) (*sim.Kernel, *vp.VP, *isa.Program) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	v := vp.New(k, vp.DefaultConfig(cores))
	for c := 0; c < cores; c++ {
		v.LoadProgram(c, p)
	}
	return k, v, p
}

func TestBreakpointStopsWholeSystem(t *testing.T) {
	src := `
		.entry main
	main:
		addi s2, s2, 1
	target:
		addi s2, s2, 10
		halt
	`
	k, v, p := platformWith(t, 2, src)
	d := New(v)
	d.AddBreakpoint(0, p.Symbols["target"])
	v.Start()
	k.RunFor(10 * sim.Microsecond)
	if len(d.Stops) != 1 || d.Stops[0].Kind != "break" {
		t.Fatalf("stops = %v", d.Stops)
	}
	if !v.Suspended() {
		t.Fatal("system not suspended at breakpoint")
	}
	// Core 0 stopped before the target instruction executed.
	if d.Reg(0, 18) != 1 {
		t.Fatalf("core0 s2 = %d, want 1", d.Reg(0, 18))
	}
	// Core 1 (no breakpoint) is frozen too — synchronous suspension.
	pc1 := d.PC(1)
	k.RunFor(10 * sim.Microsecond)
	if d.PC(1) != pc1 {
		t.Fatal("core1 advanced while suspended")
	}
	// Continue: program finishes.
	d.Continue()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("did not halt after continue")
	}
	if d.Reg(0, 18) != 11 {
		t.Fatalf("core0 s2 = %d after continue", d.Reg(0, 18))
	}
}

func TestMemWatchpoint(t *testing.T) {
	src := `
		li  t0, 0x40000100
		li  t1, 77
		sw  t1, 0(t0)
		halt
	`
	k, v, _ := platformWith(t, 1, src)
	d := New(v)
	w := d.WatchMem(0x40000100, 0x40000103, false, true, -1)
	v.Start()
	k.RunFor(10 * sim.Microsecond)
	if w.Hits != 1 {
		t.Fatalf("watch hits = %d", w.Hits)
	}
	if len(d.Stops) != 1 || d.Stops[0].Kind != "watch-mem-write" {
		t.Fatalf("stops = %v", d.Stops)
	}
	if d.Stops[0].Value != 77 {
		t.Fatalf("watched value = %d", d.Stops[0].Value)
	}
	// Inspect the written word through the debugger.
	d.Continue()
	v.RunUntilHalted(sim.Second)
	if d.SharedWord(0x40000100) != 77 {
		t.Fatalf("shared word = %d", d.SharedWord(0x40000100))
	}
}

func TestWatchpointCoreFilter(t *testing.T) {
	src := `
		li  t0, 0x40000200
		li  t1, 5
		sw  t1, 0(t0)
		halt
	`
	k, v, _ := platformWith(t, 2, src)
	d := New(v)
	w := d.WatchMem(0x40000200, 0x40000203, false, true, 1) // only core 1
	w.Handler = func(d *Debugger, r StopReason) {}          // count only
	v.Start()
	k.RunFor(20 * sim.Microsecond)
	v.RunUntilHalted(sim.Second)
	if w.Hits != 1 {
		t.Fatalf("core-filtered watch hits = %d, want 1", w.Hits)
	}
}

func TestSystemLevelAssertion(t *testing.T) {
	// An assertion over system state attaches to a watchpoint handler
	// and records into Violations; the target code is unchanged and the
	// platform runs to completion.
	src := `
		li  t0, 0x40000000
		li  t1, 150
		sw  t1, 0(t0)       # violates invariant counter <= 100
		halt
	`
	k, v, _ := platformWith(t, 1, src)
	d := New(v)
	w := d.WatchMem(vp.SharedBase, vp.SharedBase+3, false, true, -1)
	w.Handler = func(d *Debugger, r StopReason) {
		if r.Value > 100 {
			d.Violations = append(d.Violations,
				fmt.Sprintf("assertion %q failed at %v", "counter <= 100", d.VP.K.Now()))
		}
	}
	v.Start()
	k.RunFor(10 * sim.Microsecond)
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("program did not finish")
	}
	if len(d.Violations) != 1 {
		t.Fatalf("violations = %v", d.Violations)
	}
	if !strings.Contains(d.Violations[0], "counter <= 100") {
		t.Fatalf("violation text: %s", d.Violations[0])
	}
	if len(d.Stops) != 0 {
		t.Fatalf("assertion handler suspended the system: %v", d.Stops)
	}
}

// --- The Heisenbug experiment (E11) ---

func TestRaceLosesUpdatesUndisturbed(t *testing.T) {
	res, err := RunRace(2, 200, RaceProgram(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostUpdates == 0 {
		t.Fatal("race produced no lost updates; demo broken")
	}
	if res.Final >= res.Expected {
		t.Fatalf("final %d >= expected %d", res.Final, res.Expected)
	}
}

func TestRaceIsDeterministic(t *testing.T) {
	a, err := RunRace(2, 150, RaceProgram(150), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRace(2, 150, RaceProgram(150), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Final != b.Final {
		t.Fatalf("race outcome not reproducible: %d vs %d", a.Final, b.Final)
	}
}

func TestVPSuspensionPreservesTheBug(t *testing.T) {
	baseline, err := RunRace(2, 200, RaceProgram(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-intrusive whole-system suspension mid-run must not change
	// the defect.
	suspendEvery := func(v *vp.VP) {
		k := v.K
		var tick func()
		tick = func() {
			if v.AllHalted() {
				return
			}
			v.Suspend()
			v.Resume()
			k.Schedule(7*sim.Microsecond, tick)
		}
		k.Schedule(7*sim.Microsecond, tick)
	}
	observed, err := RunRace(2, 200, RaceProgram(200), suspendEvery)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Final != baseline.Final {
		t.Fatalf("VP suspension changed the defect: %d vs %d", observed.Final, baseline.Final)
	}
}

func TestSemaphoreFixesTheRace(t *testing.T) {
	res, err := RunRace(2, 100, SafeProgram(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostUpdates != 0 {
		t.Fatalf("guarded version lost %d updates", res.LostUpdates)
	}
}
