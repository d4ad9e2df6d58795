// Package vp implements the virtual platform of the paper's section
// VII: "a functionally accurate simulator of a SoC that executes
// exactly the same binary software that the real hardware executes."
// It composes MR32 instruction-set simulators with shared memory and
// peripherals (timers, mailboxes, a hardware semaphore unit, a
// console) on the deterministic event kernel, and provides the two
// capabilities the section builds its debugging argument on:
//
//   - synchronous, non-intrusive whole-system suspension ("the entire
//     system can be synchronously suspended … the system can resume
//     the operation without recognizing that it has been halted"),
//     with full visibility into every core and peripheral register,
//     and
//   - deterministic replay: the same configuration dispatches the
//     same event sequence, so defects reproduce exactly.
package vp

import (
	"fmt"

	"mpsockit/internal/isa"
	"mpsockit/internal/iss"
	"mpsockit/internal/sim"
	"mpsockit/internal/trace"
)

// Memory map.
const (
	LocalBase  = 0x0000_0000
	LocalSize  = 1 << 20
	SharedBase = 0x4000_0000
	SharedSize = 1 << 20
	MMIOBase   = 0xF000_0000

	// Per-core MMIO registers (offset from MMIOBase).
	RegCoreID   = 0x00  // R: core index
	RegConsole  = 0x04  // W: append word to core's console stream
	RegTimerPer = 0x08  // W: start periodic timer (cycles), 0 stops
	RegTimerCnt = 0x0C  // R: timer fire count
	RegHaltAll  = 0x10  // W: request whole-system stop (testing aid)
	RegMboxSend = 0x20  // W: send to core (high 16 bits = dest, low 16 = value)
	RegMboxRecv = 0x24  // R: pop own mailbox (0 if empty; use status first)
	RegMboxStat = 0x28  // R: own mailbox depth
	SemBase     = 0x100 // 16 semaphores, stride 8: +0 R=try-acquire, W=release
	SemCount    = 16
	SemStride   = 8
)

// Config sizes a virtual platform.
type Config struct {
	Cores    int
	HzPer    int64
	Timing   *isa.Timing
	TraceCap int
	// Quantum is the temporal-decoupling time quantum, expressed in
	// instructions per kernel event (TLM-2.0 style loosely-timed
	// simulation): each core executes up to Quantum instructions
	// back-to-back and then consumes their accumulated cycle time in a
	// single Delay. Quantum <= 1 is precise mode — one kernel event per
	// instruction, byte-identical event ordering to the seed model.
	// Precise stepping is also forced automatically whenever debugging
	// hooks (OnStep, OnMemAccess) are installed or the system is
	// suspended, so watchpoint and breakpoint semantics never change.
	Quantum int
}

// DefaultConfig returns a 2-core 100 MHz platform in precise
// (quantum=1) mode.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores, HzPer: 100_000_000, Timing: isa.TimingRISC(), Quantum: 1}
}

// VP is one virtual platform instance.
type VP struct {
	K      *sim.Kernel
	CPUs   []*iss.CPU
	Locals [][]byte
	Shared []byte
	Trace  *trace.Buffer

	cyclePeriod sim.Time
	quantum     int
	suspended   bool
	resumeSig   *sim.Signal

	// Console collects words written to RegConsole per core.
	Console [][]uint32
	// timer state per core
	timerPeriod []int64
	timerCount  []uint32
	timerEvents []sim.Event
	// mailboxes per core
	mbox [][]uint32
	// semaphores
	sems [SemCount]uint32

	// OnMemAccess observes shared-memory accesses (debug watchpoints).
	OnMemAccess func(core int, addr uint32, write bool, val uint32)
	// OnStep runs before each instruction and returns how long the
	// core stays parked instead of executing it: 0 runs the
	// instruction. A hook that suspends the system (a breakpoint)
	// parks the core until Resume instead.
	OnStep func(core int, pc uint32) sim.Time

	// InstrBudget, when positive, stops the run loop after that many
	// total instructions (runaway guard in tests).
	InstrBudget uint64
	retired     uint64
}

// New builds a virtual platform.
func New(k *sim.Kernel, cfg Config) *VP {
	if cfg.Cores <= 0 {
		panic("vp: need at least one core")
	}
	if cfg.Timing == nil {
		cfg.Timing = isa.TimingRISC()
	}
	if cfg.HzPer <= 0 {
		cfg.HzPer = 100_000_000
	}
	if cfg.Quantum < 1 {
		cfg.Quantum = 1
	}
	v := &VP{
		K:           k,
		Shared:      make([]byte, SharedSize),
		Trace:       trace.NewBuffer(cfg.TraceCap),
		cyclePeriod: sim.Time(int64(sim.Second) / cfg.HzPer),
		quantum:     cfg.Quantum,
		resumeSig:   k.NewSignal(),
	}
	for i := 0; i < cfg.Cores; i++ {
		local := make([]byte, LocalSize)
		v.Locals = append(v.Locals, local)
		bus := &coreBus{vp: v, core: i}
		cpu := iss.New(i, bus, cfg.Timing)
		// Local-store fetches carry no hooks or trace (see
		// coreBus.Load), so the CPU may read them directly.
		cpu.LocalFetch = local
		cpu.OnEcall = v.ecall
		v.CPUs = append(v.CPUs, cpu)
		v.Console = append(v.Console, nil)
		v.timerPeriod = append(v.timerPeriod, 0)
		v.timerCount = append(v.timerCount, 0)
		v.timerEvents = append(v.timerEvents, sim.Event{})
		v.mbox = append(v.mbox, nil)
	}
	return v
}

// LoadProgram installs a program image into core's local memory and
// points its PC at the entry.
func (v *VP) LoadProgram(core int, p *isa.Program) {
	copy(v.Locals[core], p.Image)
	v.CPUs[core].PC = p.Entry
}

// Start spawns the per-core execution processes. Call once.
func (v *VP) Start() {
	for i := range v.CPUs {
		i := i
		v.K.Spawn(fmt.Sprintf("cpu%d", i), func(p *sim.Proc) {
			cpu := v.CPUs[i]
			for !cpu.Halted {
				for v.suspended {
					v.resumeSig.Wait(p)
				}
				// Temporal decoupling: with a quantum > 1 and no
				// debugging hooks installed, execute a burst of
				// instructions locally and consume their accumulated
				// time in one kernel event. Any hook (breakpoints,
				// watchpoints) forces precise per-instruction
				// stepping so debug semantics are unchanged; the check
				// is per iteration, so hooks installed mid-run take
				// effect at the next instruction boundary.
				if v.quantum > 1 && v.OnStep == nil && v.OnMemAccess == nil {
					limit := v.quantum
					if v.InstrBudget > 0 {
						// Match the precise path's stop condition
						// (retire until retired > InstrBudget) so both
						// modes count identically at the budget edge.
						if rem := v.InstrBudget - v.retired + 1; rem < uint64(limit) {
							limit = int(rem)
						}
					}
					n, cycles := cpu.StepBurst(limit)
					v.retired += uint64(n)
					if v.InstrBudget > 0 && v.retired > v.InstrBudget {
						return
					}
					if cycles <= 0 {
						cycles = 1
					}
					p.Delay(sim.Time(cycles) * v.cyclePeriod)
					continue
				}
				if v.OnStep != nil {
					if park := v.OnStep(i, cpu.PC); park > 0 {
						// Parked by the hook; the loop re-checks the
						// suspend flag afterwards.
						if !v.suspended {
							p.Delay(park)
						}
						continue
					}
				}
				cycles := cpu.Step()
				v.retired++
				if v.InstrBudget > 0 && v.retired > v.InstrBudget {
					return
				}
				if cycles <= 0 {
					cycles = 1
				}
				p.Delay(sim.Time(cycles) * v.cyclePeriod)
			}
		})
	}
}

// Suspend halts the entire system synchronously: every core parks at
// its next instruction boundary and peripherals' timers freeze
// between events. Non-intrusive: no architectural state changes.
func (v *VP) Suspend() {
	v.suspended = true
	v.Trace.Add(trace.Event{At: v.K.Now(), Kind: trace.Sched, Detail: "suspend"})
}

// Resume releases a suspension.
func (v *VP) Resume() {
	if !v.suspended {
		return
	}
	v.suspended = false
	v.resumeSig.Broadcast()
	v.Trace.Add(trace.Event{At: v.K.Now(), Kind: trace.Sched, Detail: "resume"})
}

// Suspended reports the suspension state.
func (v *VP) Suspended() bool { return v.suspended }

// CyclePeriod returns the duration of one core clock cycle.
func (v *VP) CyclePeriod() sim.Time { return v.cyclePeriod }

// StepCore executes exactly one instruction on one core while the
// system is suspended — the per-core stepping of section VII.
func (v *VP) StepCore(core int) error {
	if !v.suspended {
		return fmt.Errorf("vp: StepCore requires a suspended system")
	}
	cpu := v.CPUs[core]
	if cpu.Halted {
		return fmt.Errorf("vp: core %d is halted", core)
	}
	cpu.Step()
	v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.Sched, Detail: "step"})
	return nil
}

// AllHalted reports whether every core has halted.
func (v *VP) AllHalted() bool {
	for _, c := range v.CPUs {
		if !c.Halted {
			return false
		}
	}
	return true
}

// Retired returns total instructions retired across cores.
func (v *VP) Retired() uint64 { return v.retired }

// --- Bus and peripherals ---

// coreBus routes one core's accesses to local RAM, shared RAM or
// MMIO.
type coreBus struct {
	vp   *VP
	core int
}

func (b *coreBus) Load(core int, addr uint32, size int) (uint32, error) {
	v := b.vp
	switch {
	case addr >= MMIOBase:
		return v.mmioLoad(b.core, addr-MMIOBase)
	case addr >= SharedBase && addr+uint32(size) <= SharedBase+SharedSize:
		off := addr - SharedBase
		val := loadLE(v.Shared[off:], size)
		v.Trace.Add(trace.Event{At: v.K.Now(), Core: b.core, Kind: trace.MemRd, Addr: addr, Value: val})
		if v.OnMemAccess != nil {
			v.OnMemAccess(b.core, addr, false, val)
		}
		return val, nil
	case addr+uint32(size) <= LocalSize:
		return loadLE(v.Locals[b.core][addr:], size), nil
	default:
		return 0, fmt.Errorf("vp: core %d load fault at 0x%08x", b.core, addr)
	}
}

func (b *coreBus) Store(core int, addr uint32, val uint32, size int) error {
	v := b.vp
	switch {
	case addr >= MMIOBase:
		return v.mmioStore(b.core, addr-MMIOBase, val)
	case addr >= SharedBase && addr+uint32(size) <= SharedBase+SharedSize:
		off := addr - SharedBase
		storeLE(v.Shared[off:], val, size)
		v.Trace.Add(trace.Event{At: v.K.Now(), Core: b.core, Kind: trace.MemWr, Addr: addr, Value: val})
		if v.OnMemAccess != nil {
			v.OnMemAccess(b.core, addr, true, val)
		}
		return nil
	case addr+uint32(size) <= LocalSize:
		storeLE(v.Locals[b.core][addr:], val, size)
		return nil
	default:
		return fmt.Errorf("vp: core %d store fault at 0x%08x", b.core, addr)
	}
}

func loadLE(b []byte, size int) uint32 {
	var v uint32
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint32(b[i])
	}
	return v
}

func storeLE(b []byte, v uint32, size int) {
	for i := 0; i < size; i++ {
		b[i] = byte(v)
		v >>= 8
	}
}

func (v *VP) mmioLoad(core int, off uint32) (uint32, error) {
	switch {
	case off == RegCoreID:
		return uint32(core), nil
	case off == RegTimerCnt:
		return v.timerCount[core], nil
	case off == RegMboxRecv:
		if len(v.mbox[core]) == 0 {
			return 0, nil
		}
		val := v.mbox[core][0]
		v.mbox[core] = v.mbox[core][1:]
		v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.Periph,
			Addr: MMIOBase + off, Value: val, Detail: "mbox-recv"})
		return val, nil
	case off == RegMboxStat:
		return uint32(len(v.mbox[core])), nil
	case off >= SemBase && off < SemBase+SemCount*SemStride:
		idx := (off - SemBase) / SemStride
		if v.sems[idx] == 0 {
			v.sems[idx] = 1
			v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.Periph,
				Addr: MMIOBase + off, Value: 1, Detail: fmt.Sprintf("sem%d-acquire", idx)})
			return 1, nil // acquired
		}
		return 0, nil // busy
	default:
		return 0, fmt.Errorf("vp: core %d MMIO load fault at +0x%x", core, off)
	}
}

func (v *VP) mmioStore(core int, off uint32, val uint32) error {
	switch {
	case off == RegConsole:
		v.Console[core] = append(v.Console[core], val)
		return nil
	case off == RegTimerPer:
		v.setTimer(core, int64(val))
		return nil
	case off == RegHaltAll:
		for _, c := range v.CPUs {
			c.Halted = true
		}
		return nil
	case off == RegMboxSend:
		dest := int(val >> 16)
		payload := val & 0xffff
		if dest < 0 || dest >= len(v.CPUs) {
			return fmt.Errorf("vp: mailbox send to bad core %d", dest)
		}
		if len(v.mbox[dest]) >= 16 {
			return nil // full: drop (status lets software avoid this)
		}
		v.mbox[dest] = append(v.mbox[dest], payload)
		v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.Periph,
			Addr: MMIOBase + off, Value: val, Detail: fmt.Sprintf("mbox-send->%d", dest)})
		v.raiseIRQ(dest)
		return nil
	case off >= SemBase && off < SemBase+SemCount*SemStride:
		idx := (off - SemBase) / SemStride
		v.sems[idx] = 0
		v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.Periph,
			Addr: MMIOBase + off, Value: 0, Detail: fmt.Sprintf("sem%d-release", idx)})
		return nil
	default:
		return fmt.Errorf("vp: core %d MMIO store fault at +0x%x", core, off)
	}
}

// setTimer programs core's periodic timer in core cycles.
func (v *VP) setTimer(core int, periodCycles int64) {
	// Cancel is a no-op on fired or zero-valued handles.
	v.K.Cancel(v.timerEvents[core])
	v.timerEvents[core] = sim.Event{}
	v.timerPeriod[core] = periodCycles
	if periodCycles <= 0 {
		return
	}
	var arm func()
	arm = func() {
		v.timerEvents[core] = v.K.Schedule(sim.Time(periodCycles)*v.cyclePeriod, func() {
			if v.suspended {
				// Frozen system: re-arm without firing; the timer
				// "does not recognize it has been halted".
				arm()
				return
			}
			v.timerCount[core]++
			v.raiseIRQ(core)
			arm()
		})
	}
	arm()
}

func (v *VP) raiseIRQ(core int) {
	v.CPUs[core].RaiseInterrupt()
	v.Trace.Add(trace.Event{At: v.K.Now(), Core: core, Kind: trace.IRQ, Detail: "irq"})
}

// ecall provides host services: v0=1 print a0 to console, v0=14
// return-from-interrupt (PC <- k1, re-enable interrupts).
func (v *VP) ecall(c *iss.CPU) int64 {
	switch c.Regs[iss.RegV0] {
	case 1:
		v.Console[c.ID] = append(v.Console[c.ID], c.Regs[iss.RegA0])
		return 2
	case 14:
		c.PC = c.Regs[iss.RegK1]
		c.IntEnabled = true
		return 2
	default:
		return 1
	}
}

// RunUntilHalted runs until all cores halt or maxTime passes.
func (v *VP) RunUntilHalted(maxTime sim.Time) bool {
	deadline := v.K.Now() + maxTime
	for !v.AllHalted() && v.K.Now() < deadline {
		if v.K.RunFor(10*sim.Microsecond) == 0 && v.K.Pending() == 0 {
			break
		}
	}
	return v.AllHalted()
}
