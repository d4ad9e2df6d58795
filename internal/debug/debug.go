// Package debug layers the section-VII debugging methodology over the
// virtual platform: breakpoints, memory watchpoints with
// whole-system suspension, per-core stepping, full state inspection,
// and system-level software assertions evaluated without changing the
// target code.
//
// It also models the *intrusive* alternative the paper criticizes — a
// hardware probe that halts only the core under debug while "other
// cores or timers continue to operate" — so experiments can produce
// Heisenbugs on demand and show the virtual platform making them
// reproducible.
package debug

import (
	"fmt"

	"mpsockit/internal/sim"
	"mpsockit/internal/trace"
	"mpsockit/internal/vp"
)

// StopReason describes why the system suspended.
type StopReason struct {
	Kind   string // "break", "watch-mem-read", "watch-mem-write"
	Core   int
	PC     uint32
	Addr   uint32
	Value  uint32
	At     sim.Time
	Detail string
}

// MemWatch is a peripheral/memory access watchpoint ("suspending
// execution when a specific core or DMA is writing to a shared
// resource").
type MemWatch struct {
	ID      int
	Lo, Hi  uint32 // inclusive address range
	OnWrite bool
	OnRead  bool
	// CoreFilter restricts to one core; -1 matches any.
	CoreFilter int
	// Handler runs on every hit (assertions attach here). A nil
	// handler just suspends.
	Handler func(d *Debugger, r StopReason)
	Hits    int
	// Enabled gates the watchpoint.
	Enabled bool
}

// Debugger drives one virtual platform.
type Debugger struct {
	VP *vp.VP

	breakpoints map[int]map[uint32]bool
	stepOver    map[int]uint32 // skip bp once after resume (core -> pc)
	memWatches  []*MemWatch
	nextWatchID int

	// Stops records every suspension with its cause.
	Stops []StopReason
	// Violations records failed assertions.
	Violations []string
}

// New attaches a debugger to a virtual platform (install before
// vp.Start).
func New(v *vp.VP) *Debugger {
	d := &Debugger{
		VP:          v,
		breakpoints: map[int]map[uint32]bool{},
		stepOver:    map[int]uint32{},
	}
	v.OnStep = d.onStep
	v.OnMemAccess = d.onMem
	return d
}

// AddBreakpoint arms a PC breakpoint on one core.
func (d *Debugger) AddBreakpoint(core int, pc uint32) {
	if d.breakpoints[core] == nil {
		d.breakpoints[core] = map[uint32]bool{}
	}
	d.breakpoints[core][pc] = true
}

// WatchMem arms an address-range watchpoint and returns it.
func (d *Debugger) WatchMem(lo, hi uint32, onRead, onWrite bool, core int) *MemWatch {
	d.nextWatchID++
	w := &MemWatch{
		ID: d.nextWatchID, Lo: lo, Hi: hi,
		OnRead: onRead, OnWrite: onWrite, CoreFilter: core, Enabled: true,
	}
	d.memWatches = append(d.memWatches, w)
	return w
}

func (d *Debugger) onStep(core int, pc uint32) sim.Time {
	if d.stepOver[core] == pc {
		delete(d.stepOver, core)
		return 0
	}
	if d.breakpoints[core][pc] {
		r := StopReason{Kind: "break", Core: core, PC: pc, At: d.VP.K.Now()}
		d.stop(r)
		d.stepOver[core] = pc
		return d.VP.CyclePeriod() // parked until Continue: stop suspended the system
	}
	return 0
}

func (d *Debugger) onMem(core int, addr uint32, write bool, val uint32) {
	for _, w := range d.memWatches {
		if !w.Enabled {
			continue
		}
		if addr < w.Lo || addr > w.Hi {
			continue
		}
		if write && !w.OnWrite || !write && !w.OnRead {
			continue
		}
		if w.CoreFilter >= 0 && w.CoreFilter != core {
			continue
		}
		w.Hits++
		kind := "watch-mem-read"
		if write {
			kind = "watch-mem-write"
		}
		r := StopReason{
			Kind: kind, Core: core, PC: d.VP.CPUs[core].PC,
			Addr: addr, Value: val, At: d.VP.K.Now(),
			Detail: fmt.Sprintf("watch %d", w.ID),
		}
		if w.Handler != nil {
			w.Handler(d, r)
		} else {
			d.stop(r)
		}
	}
}

// stop suspends the whole system and records why.
func (d *Debugger) stop(r StopReason) {
	d.Stops = append(d.Stops, r)
	d.VP.Suspend()
	d.VP.Trace.Add(trace.Event{At: d.VP.K.Now(), Core: r.Core, Kind: trace.Sched, Detail: r.Kind})
}

// Continue resumes execution after a stop.
func (d *Debugger) Continue() { d.VP.Resume() }

// --- Inspection (the "consistent view into the state of all cores
// and peripherals") ---

// Reg reads a core register.
func (d *Debugger) Reg(core, reg int) uint32 { return d.VP.CPUs[core].Regs[reg] }

// PC reads a core's program counter.
func (d *Debugger) PC(core int) uint32 { return d.VP.CPUs[core].PC }

// SharedWord reads a word of shared memory without disturbing it.
func (d *Debugger) SharedWord(addr uint32) uint32 {
	off := addr - vp.SharedBase
	if addr < vp.SharedBase || int(off)+4 > len(d.VP.Shared) {
		return 0
	}
	var v uint32
	for i := 3; i >= 0; i-- {
		v = v<<8 | uint32(d.VP.Shared[off+uint32(i)])
	}
	return v
}

// --- The intrusive alternative (for the Heisenbug experiment) ---

// IntrusiveProbe models traditional single-core halt debugging: when
// the probed core reaches the trigger PC, only that core stalls for
// stallCycles while the rest of the system keeps running — exactly
// the timing perturbation that makes Heisenbugs vanish ("while the
// core under debug is stalled, other cores or timers continue to
// operate").
type IntrusiveProbe struct {
	Core        int
	TriggerPC   uint32
	StallCycles int64
	Hits        int
}

// Install arms the probe on a virtual platform (instead of a
// Debugger; they both claim the OnStep hook). On a hit the step hook
// parks the probed core for the whole stall in one kernel event,
// while virtual time — and every other core — marches on.
func (pr *IntrusiveProbe) Install(v *vp.VP) {
	stalledUntil := sim.Time(-1)
	armed := true // re-arms once the core leaves the trigger PC
	v.OnStep = func(core int, pc uint32) sim.Time {
		if core != pr.Core {
			return 0
		}
		now := v.K.Now()
		if stalledUntil >= 0 {
			if now < stalledUntil {
				return stalledUntil - now // core under debug stays halted
			}
			stalledUntil = -1
			armed = false // let the trigger instruction finally run
		}
		if pc != pr.TriggerPC {
			armed = true
			return 0
		}
		if !armed {
			return 0
		}
		pr.Hits++
		stalledUntil = now + sim.Time(pr.StallCycles)*v.CyclePeriod()
		return stalledUntil - now
	}
}
