// Package platform models the MPSoC hardware targets the paper's
// programming tools run against: processing elements with per-core
// frequency scaling (section II-A), local memory bound to cores
// (section II-A/B), and an interconnect fabric (mesh NoC or shared
// bus). Both the homogeneous "manycore" platforms advocated in
// section II and the heterogeneous wireless-multimedia platforms MAPS
// targets in section IV can be described.
package platform

import (
	"fmt"
	"sort"

	"mpsockit/internal/mem"
	"mpsockit/internal/sim"
)

// PEClass identifies the kind of processing element. Section II argues
// for a single ISA across all cores; section IV/V target heterogeneous
// platforms (RISC control cores, DSPs, VLIW media engines,
// accelerators). The toolkit supports both: classes share the MR32 ISA
// (homogeneous-ISA position) but differ in per-class cycle timing and
// clock (heterogeneous-performance reality).
type PEClass int

// Processing element classes.
const (
	RISC PEClass = iota // general-purpose control core
	DSP                 // signal-processing core (fast MAC)
	VLIW                // wide media core
	ACC                 // fixed-function style accelerator core
	CTRL                // host/control processor (e.g. the PPE in a Cell-like SoC)
)

var peClassNames = [...]string{"RISC", "DSP", "VLIW", "ACC", "CTRL"}

func (c PEClass) String() string {
	if !c.Named() {
		return fmt.Sprintf("PEClass(%d)", int(c))
	}
	return peClassNames[c]
}

// Named reports whether c is one of the defined classes, the ones
// String names and MarshalText encodes.
func (c PEClass) Named() bool { return c >= 0 && int(c) < len(peClassNames) }

// ParsePEClass converts a class name to a PEClass.
func ParsePEClass(s string) (PEClass, error) {
	for i, n := range peClassNames {
		if n == s {
			return PEClass(i), nil
		}
	}
	return 0, fmt.Errorf("platform: unknown PE class %q", s)
}

// MarshalText encodes the class by name, so JSON records stay
// readable ("RISC", not 0) and stable if class values are ever
// reordered.
func (c PEClass) MarshalText() ([]byte, error) {
	if !c.Named() {
		return nil, fmt.Errorf("platform: cannot encode PEClass(%d)", int(c))
	}
	return []byte(peClassNames[c]), nil
}

// UnmarshalText decodes a class name produced by MarshalText.
func (c *PEClass) UnmarshalText(text []byte) error {
	cl, err := ParsePEClass(string(text))
	if err != nil {
		return err
	}
	*c = cl
	return nil
}

// Core is one processing element. Frequency is adjustable at run time
// between discrete DVFS levels, the mechanism section II-A proposes
// for boosting sequential phases ("the frequency at which each core
// executes shall be modifiable at a fine-grain level during program
// execution").
type Core struct {
	ID    int
	Name  string
	Class PEClass

	// Levels are the available clock frequencies in Hz, ascending.
	Levels []int64
	level  int // index into Levels
	// nominal is the level the core returns to after Unboost.
	nominal int

	// L1Bytes and L2Bytes are core-local memories (section II-A: "L2
	// cache / local memory shall be bound to cores").
	L1Bytes int
	L2Bytes int

	// SpaceShared marks the core as part of the space-shared pool
	// (dedicated gang allocation) rather than the time-shared pool
	// (section II-B's two resource types).
	SpaceShared bool

	// FreqSwitches counts DVFS transitions, for energy-proxy stats.
	FreqSwitches uint64
}

// Hz returns the current clock frequency.
func (c *Core) Hz() int64 { return c.Levels[c.level] }

// Level returns the current DVFS level index.
func (c *Core) Level() int { return c.level }

// SetLevel switches the core to DVFS level i.
func (c *Core) SetLevel(i int) error {
	if i < 0 || i >= len(c.Levels) {
		return fmt.Errorf("platform: core %d has no DVFS level %d", c.ID, i)
	}
	if i != c.level {
		c.level = i
		c.FreqSwitches++
	}
	return nil
}

// SetNominal records the current level as the core's nominal
// operating point.
func (c *Core) SetNominal() { c.nominal = c.level }

// Boost raises the core to its highest frequency. It returns the
// boost factor relative to the nominal frequency.
func (c *Core) Boost() float64 {
	base := c.Levels[c.nominal]
	_ = c.SetLevel(len(c.Levels) - 1)
	return float64(c.Hz()) / float64(base)
}

// Unboost returns the core to its nominal frequency.
func (c *Core) Unboost() { _ = c.SetLevel(c.nominal) }

// CyclePeriod returns the duration of one clock cycle at the current
// frequency.
func (c *Core) CyclePeriod() sim.Time {
	return sim.Time(int64(sim.Second) / c.Hz())
}

// Cycles converts a cycle count at the current frequency into virtual
// time.
func (c *Core) Cycles(n int64) sim.Time {
	if n < 0 {
		panic("platform: negative cycle count")
	}
	return sim.Time(n * (int64(sim.Second) / c.Hz()))
}

// TimeToCycles converts a duration into whole cycles at the current
// frequency (rounding down).
func (c *Core) TimeToCycles(t sim.Time) int64 {
	return int64(t) / (int64(sim.Second) / c.Hz())
}

// FabricStats is the traffic counter snapshot every fabric maintains:
// completed transfers and the contention stall time they accumulated
// waiting for busy links (or the bus arbiter). Design-space
// exploration reads the delta across a simulation to score
// interconnect pressure.
type FabricStats struct {
	Transfers uint64
	Wait      sim.Time
}

// Sub returns s - prev, the traffic that occurred between the two
// snapshots.
func (s FabricStats) Sub(prev FabricStats) FabricStats {
	return FabricStats{Transfers: s.Transfers - prev.Transfers, Wait: s.Wait - prev.Wait}
}

// FabricStatsOf snapshots a fabric's counters as a FabricStats.
func FabricStatsOf(f Fabric) FabricStats {
	transfers, wait := f.Stats()
	return FabricStats{Transfers: transfers, Wait: wait}
}

// MemStats is the memory-subsystem counterpart of FabricStats:
// serviced memory accesses and the queue wait they accumulated behind
// busy banks/channels (or the shared DMA engine). Design-space
// exploration reads the delta across a simulation to score memory
// pressure.
type MemStats struct {
	Transfers uint64
	Wait      sim.Time
}

// Sub returns s - prev, the accesses serviced between the two
// snapshots.
func (s MemStats) Sub(prev MemStats) MemStats {
	return MemStats{Transfers: s.Transfers - prev.Transfers, Wait: s.Wait - prev.Wait}
}

// MemStatsOf snapshots a memory model's counters. A nil model (the
// ideal memory) has no counters and snapshots as zero.
func MemStatsOf(m mem.Model) MemStats {
	if m == nil {
		return MemStats{}
	}
	transfers, wait := m.Stats()
	return MemStats{Transfers: transfers, Wait: wait}
}

// Fabric is the on-chip interconnect abstraction. Implementations live
// in internal/noc (mesh network-on-chip, shared bus). Transfer models
// moving a payload between two cores' local memories and fires h on
// the kernel when the payload has been delivered.
type Fabric interface {
	Name() string
	// Transfer starts moving bytes from core src to core dst at the
	// current virtual time. h.Fire(arg) runs when delivery completes;
	// a closure caller passes sim.Func(fn), 0.
	Transfer(src, dst, bytes int, h sim.Handler, arg int)
	// EstLatency returns the contention-free latency estimate used by
	// mapping cost models.
	EstLatency(src, dst, bytes int) sim.Time
	// EstPairLatency and EstPayloadLatency split EstLatency for
	// src != dst into a term of the core pair and a term of the
	// payload: EstLatency(src, dst, b) == EstPairLatency(src, dst) +
	// EstPayloadLatency(b), exactly. Mapping cost models tabulate both
	// once per bound (graph, platform) pair.
	EstPairLatency(src, dst int) sim.Time
	EstPayloadLatency(bytes int) sim.Time
	// Stats returns the cumulative completed-transfer count and
	// contention wait (plain values so implementations need not
	// depend on this package).
	Stats() (transfers uint64, wait sim.Time)
	// Reset returns the fabric to its state when built: every link
	// free and the Stats counters zeroed.
	Reset()
}

// Platform is a complete MPSoC: cores plus interconnect plus optional
// off-cluster shared memory.
type Platform struct {
	Name        string
	Cores       []*Core
	Fabric      Fabric
	SharedBytes int
	Kernel      *sim.Kernel

	// Mem is the optional memory-subsystem contention model cross-PE
	// payloads are serviced by after the fabric delivers them. nil is
	// the ideal memory: zero service time, the pre-model behaviour.
	Mem mem.Model
}

// MemTiming returns the platform's memory-subsystem service
// parameters — per-access latency and DMA burst bandwidth in bytes
// per nanosecond — for mem.Spec.Build. Platforms with off-cluster
// shared memory (DRAM behind the fabric) pay a longer access than the
// local-store-only ones, whose "memory" is a neighbour's scratchpad.
func (p *Platform) MemTiming() (access sim.Time, bytesPerNS int64) {
	if p.SharedBytes > 0 {
		return 30 * sim.Nanosecond, 8
	}
	return 15 * sim.Nanosecond, 8
}

// Homogeneous reports whether all cores share one PE class — the
// hardware shape section II argues scales (near) linearly.
func (p *Platform) Homogeneous() bool {
	for _, c := range p.Cores {
		if c.Class != p.Cores[0].Class {
			return false
		}
	}
	return true
}

// CoresOf returns the cores of the given class, in ID order.
func (p *Platform) CoresOf(class PEClass) []*Core {
	var out []*Core
	for _, c := range p.Cores {
		if c.Class == class {
			out = append(out, c)
		}
	}
	return out
}

// Classes returns the distinct PE classes present, sorted.
func (p *Platform) Classes() []PEClass {
	seen := map[PEClass]bool{}
	for _, c := range p.Cores {
		seen[c.Class] = true
	}
	out := make([]PEClass, 0, len(seen))
	for cl := range seen {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Core returns the core with the given ID.
func (p *Platform) Core(id int) *Core {
	if id < 0 || id >= len(p.Cores) {
		panic(fmt.Sprintf("platform: no core %d", id))
	}
	return p.Cores[id]
}

// String summarizes the platform.
func (p *Platform) String() string {
	counts := map[PEClass]int{}
	for _, c := range p.Cores {
		counts[c.Class]++
	}
	s := fmt.Sprintf("%s[", p.Name)
	first := true
	for _, cl := range p.Classes() {
		if !first {
			s += " "
		}
		first = false
		s += fmt.Sprintf("%dx%s", counts[cl], cl)
	}
	return s + "]"
}

// CoreSpec describes one core for the heterogeneous builder.
type CoreSpec struct {
	Name    string
	Class   PEClass
	Hz      int64
	Levels  []int64 // optional explicit DVFS table; defaults to {Hz/2, Hz, 2*Hz}
	L1Bytes int
	L2Bytes int
}

func defaultLevels(hz int64) []int64 {
	return []int64{hz / 2, hz, 2 * hz}
}

// New builds a platform from explicit core specs.
func New(k *sim.Kernel, name string, specs []CoreSpec, fabric Fabric) *Platform {
	p := &Platform{Name: name, Kernel: k, Fabric: fabric}
	for i, s := range specs {
		levels := s.Levels
		if len(levels) == 0 {
			levels = defaultLevels(s.Hz)
		}
		sort.Slice(levels, func(a, b int) bool { return levels[a] < levels[b] })
		nominal := 0
		for j, hz := range levels {
			if hz == s.Hz {
				nominal = j
			}
		}
		cname := s.Name
		if cname == "" {
			cname = fmt.Sprintf("%s%d", s.Class, i)
		}
		c := &Core{
			ID: i, Name: cname, Class: s.Class,
			Levels: levels, level: nominal, nominal: nominal,
			L1Bytes: s.L1Bytes, L2Bytes: s.L2Bytes,
		}
		p.Cores = append(p.Cores, c)
	}
	return p
}

// NewHomogeneous builds the section-II-style platform: n identical
// RISC cores at hz with per-core DVFS (half, nominal, double) and
// core-local L1/L2.
func NewHomogeneous(k *sim.Kernel, n int, hz int64, fabric Fabric) *Platform {
	specs := make([]CoreSpec, n)
	for i := range specs {
		specs[i] = CoreSpec{
			Class: RISC, Hz: hz,
			L1Bytes: 32 << 10, L2Bytes: 256 << 10,
		}
	}
	p := New(k, fmt.Sprintf("homog%d", n), specs, fabric)
	for _, c := range p.Cores {
		c.SpaceShared = true
	}
	return p
}

// NewCellLike builds a Cell-BE-shaped heterogeneous platform: one
// control core (PPE analogue) plus nSPE synergistic-style DSP cores
// with local stores — the section V retargeting case study target.
func NewCellLike(k *sim.Kernel, nSPE int, fabric Fabric) *Platform {
	specs := []CoreSpec{{
		Name: "ppe", Class: CTRL, Hz: 3_200_000_000,
		L1Bytes: 32 << 10, L2Bytes: 512 << 10,
	}}
	for i := 0; i < nSPE; i++ {
		specs = append(specs, CoreSpec{
			Name: fmt.Sprintf("spe%d", i), Class: DSP, Hz: 3_200_000_000,
			L1Bytes: 256 << 10, // the SPE-style local store
		})
	}
	return New(k, fmt.Sprintf("celllike%d", nSPE), specs, fabric)
}

// NewMPCoreLike builds an ARM-MPCore-shaped symmetric multiprocessor:
// n identical RISC cores with shared memory — the second section V
// retargeting target.
func NewMPCoreLike(k *sim.Kernel, n int, fabric Fabric) *Platform {
	specs := make([]CoreSpec, n)
	for i := range specs {
		specs[i] = CoreSpec{
			Name: fmt.Sprintf("cpu%d", i), Class: RISC, Hz: 600_000_000,
			L1Bytes: 32 << 10,
		}
	}
	p := New(k, fmt.Sprintf("mpcore%d", n), specs, fabric)
	p.SharedBytes = 64 << 20
	return p
}

// NewWirelessTerminal builds the MAPS-style (section IV) heterogeneous
// multimedia/baseband platform: 2 RISC control cores, 2 DSPs, one
// VLIW media engine and one accelerator.
func NewWirelessTerminal(k *sim.Kernel, fabric Fabric) *Platform {
	specs := []CoreSpec{
		{Name: "arm0", Class: RISC, Hz: 400_000_000, L1Bytes: 32 << 10, L2Bytes: 256 << 10},
		{Name: "arm1", Class: RISC, Hz: 400_000_000, L1Bytes: 32 << 10, L2Bytes: 256 << 10},
		{Name: "dsp0", Class: DSP, Hz: 600_000_000, L1Bytes: 64 << 10},
		{Name: "dsp1", Class: DSP, Hz: 600_000_000, L1Bytes: 64 << 10},
		{Name: "vliw0", Class: VLIW, Hz: 300_000_000, L1Bytes: 128 << 10},
		{Name: "acc0", Class: ACC, Hz: 200_000_000, L1Bytes: 16 << 10},
	}
	p := New(k, "wireless", specs, fabric)
	p.SharedBytes = 16 << 20
	return p
}
