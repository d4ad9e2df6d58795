// Package mem models the MPSoC memory system: core-local stores,
// a shared memory with strict locality enforcement (section II-B of
// the paper: "strict enforcement of locality, at least for on-chip
// memory … protection of each core's resource integrity"), DMA
// engines for Cell-style local-store platforms, and a small cache
// model for the instruction-set simulator.
package mem

import (
	"fmt"

	"mpsockit/internal/sim"
)

// AccessKind distinguishes reads from writes for protection checks and
// tracing.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

func (a AccessKind) String() string {
	if a == Read {
		return "R"
	}
	return "W"
}

// Fault describes a rejected memory access.
type Fault struct {
	Core int
	Addr uint32
	Size int
	Kind AccessKind
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault core=%d %s addr=0x%08x size=%d: %s",
		f.Core, f.Kind, f.Addr, f.Size, f.Why)
}

// LocalStore is a core-private scratchpad (the "L2 cache / local
// memory bound to cores" of section II-A, and the SPE local store of
// the section V Cell target).
type LocalStore struct {
	Owner        int // core ID
	Data         []byte
	AccessCycles int64 // latency per word access

	Reads, Writes uint64
}

// NewLocalStore returns a size-byte local store owned by core owner.
func NewLocalStore(owner, size int, accessCycles int64) *LocalStore {
	return &LocalStore{Owner: owner, Data: make([]byte, size), AccessCycles: accessCycles}
}

// Size returns the store capacity in bytes.
func (l *LocalStore) Size() int { return len(l.Data) }

func (l *LocalStore) check(core int, addr uint32, size int, kind AccessKind) error {
	if core != l.Owner {
		return &Fault{Core: core, Addr: addr, Size: size, Kind: kind,
			Why: fmt.Sprintf("local store owned by core %d", l.Owner)}
	}
	if int(addr)+size > len(l.Data) {
		return &Fault{Core: core, Addr: addr, Size: size, Kind: kind, Why: "out of bounds"}
	}
	return nil
}

// ReadAt copies size bytes at addr into a fresh slice, enforcing
// ownership.
func (l *LocalStore) ReadAt(core int, addr uint32, size int) ([]byte, error) {
	if err := l.check(core, addr, size, Read); err != nil {
		return nil, err
	}
	l.Reads++
	out := make([]byte, size)
	copy(out, l.Data[addr:int(addr)+size])
	return out, nil
}

// WriteAt stores data at addr, enforcing ownership.
func (l *LocalStore) WriteAt(core int, addr uint32, data []byte) error {
	if err := l.check(core, addr, len(data), Write); err != nil {
		return err
	}
	l.Writes++
	copy(l.Data[addr:int(addr)+len(data)], data)
	return nil
}

// Region is a protected window of the shared memory.
type Region struct {
	Name  string
	Base  uint32
	Size  uint32
	Owner int  // core allowed to write; -1 = any
	ROAll bool // all cores may read
}

// Contains reports whether [addr, addr+size) falls inside the region.
func (r *Region) Contains(addr uint32, size int) bool {
	return addr >= r.Base && uint64(addr)+uint64(size) <= uint64(r.Base)+uint64(r.Size)
}

// SharedMemory is the off-cluster memory with per-region protection.
// Section II-B's position is that the OS must police locality; illegal
// accesses fault instead of silently corrupting state, and every fault
// is recorded so the debug layer (section VII) can watch for them.
type SharedMemory struct {
	Data         []byte
	AccessCycles int64
	regions      []*Region

	Reads, Writes uint64
	// Faults records every rejected access in order.
	Faults []Fault
	// Watch, when non-nil, is invoked on every access (after protection
	// checks) — the hook the peripheral-access watchpoints of the debug
	// layer attach to.
	Watch func(core int, addr uint32, size int, kind AccessKind)
}

// NewSharedMemory returns a size-byte shared memory.
func NewSharedMemory(size int, accessCycles int64) *SharedMemory {
	return &SharedMemory{Data: make([]byte, size), AccessCycles: accessCycles}
}

// AddRegion registers a protected region. Regions may not overlap.
func (s *SharedMemory) AddRegion(r *Region) error {
	if uint64(r.Base)+uint64(r.Size) > uint64(len(s.Data)) {
		return fmt.Errorf("mem: region %s exceeds memory", r.Name)
	}
	for _, old := range s.regions {
		if r.Base < old.Base+old.Size && old.Base < r.Base+r.Size {
			return fmt.Errorf("mem: region %s overlaps %s", r.Name, old.Name)
		}
	}
	s.regions = append(s.regions, r)
	return nil
}

// RegionAt returns the region containing the access, or nil.
func (s *SharedMemory) RegionAt(addr uint32, size int) *Region {
	for _, r := range s.regions {
		if r.Contains(addr, size) {
			return r
		}
	}
	return nil
}

func (s *SharedMemory) check(core int, addr uint32, size int, kind AccessKind) error {
	if uint64(addr)+uint64(size) > uint64(len(s.Data)) {
		f := Fault{Core: core, Addr: addr, Size: size, Kind: kind, Why: "out of bounds"}
		s.Faults = append(s.Faults, f)
		return &f
	}
	r := s.RegionAt(addr, size)
	if r == nil {
		// Unregioned memory is open: protection is opt-in.
		return nil
	}
	if r.Owner >= 0 && core != r.Owner {
		if kind == Read && r.ROAll {
			return nil
		}
		f := Fault{Core: core, Addr: addr, Size: size, Kind: kind,
			Why: fmt.Sprintf("region %s owned by core %d", r.Name, r.Owner)}
		s.Faults = append(s.Faults, f)
		return &f
	}
	return nil
}

// ReadAt reads size bytes at addr as core, enforcing region protection.
func (s *SharedMemory) ReadAt(core int, addr uint32, size int) ([]byte, error) {
	if err := s.check(core, addr, size, Read); err != nil {
		return nil, err
	}
	s.Reads++
	if s.Watch != nil {
		s.Watch(core, addr, size, Read)
	}
	out := make([]byte, size)
	copy(out, s.Data[addr:int(addr)+size])
	return out, nil
}

// WriteAt writes data at addr as core, enforcing region protection.
func (s *SharedMemory) WriteAt(core int, addr uint32, data []byte) error {
	if err := s.check(core, addr, len(data), Write); err != nil {
		return err
	}
	s.Writes++
	if s.Watch != nil {
		s.Watch(core, addr, len(data), Write)
	}
	copy(s.Data[addr:int(addr)+len(data)], data)
	return nil
}

// DMA is a direct-memory-access engine moving payloads between local
// stores across the fabric — the transport of the Cell-like target's
// message-passing channels (section V) and a shared platform resource
// in the debugging discussion (section VII).
type DMA struct {
	ID     int
	k      *sim.Kernel
	fabric interface {
		Transfer(src, dst, bytes int, h sim.Handler, arg int)
	}
	// SetupCycles models programming the DMA descriptor.
	SetupTime sim.Time
	// Busy serializes channel programs on this engine.
	busy *sim.Resource

	Transfers uint64
	// Watch is invoked when a transfer is issued (debug hook).
	Watch func(srcCore, dstCore, bytes int)
}

// NewDMA returns a DMA engine using the given fabric.
func NewDMA(k *sim.Kernel, id int, fabric interface {
	Transfer(src, dst, bytes int, h sim.Handler, arg int)
}, setup sim.Time) *DMA {
	return &DMA{
		ID: id, k: k, fabric: fabric, SetupTime: setup,
		busy: k.NewResource(fmt.Sprintf("dma%d", id), 1),
	}
}

// Copy moves size bytes from src's local store at srcAddr to dst's
// local store at dstAddr, blocking the calling process until the data
// has landed. Both stores are updated at completion time.
func (d *DMA) Copy(p *sim.Proc, src *LocalStore, srcAddr uint32,
	dst *LocalStore, dstAddr uint32, size int) error {

	data, err := src.ReadAt(src.Owner, srcAddr, size)
	if err != nil {
		return err
	}
	d.busy.Acquire(p)
	defer d.busy.Release()
	p.Delay(d.SetupTime)
	if d.Watch != nil {
		d.Watch(src.Owner, dst.Owner, size)
	}
	doneSig := d.k.NewSignal()
	d.fabric.Transfer(src.Owner, dst.Owner, size, sim.Func(doneSig.Broadcast), 0)
	doneSig.Wait(p)
	d.Transfers++
	return dst.WriteAt(dst.Owner, dstAddr, data)
}

// Cache is a direct-mapped cache used by the instruction-set
// simulator's timing model.
type Cache struct {
	LineBytes int
	Lines     int
	HitCycles int64
	MissExtra int64 // additional cycles on miss

	tags  []uint32
	valid []bool

	Hits, Misses uint64
}

// NewCache returns a direct-mapped cache with the given geometry.
func NewCache(lineBytes, lines int, hitCycles, missExtra int64) *Cache {
	if lineBytes <= 0 || lines <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: cache geometry must be positive, line size power of two")
	}
	return &Cache{
		LineBytes: lineBytes, Lines: lines,
		HitCycles: hitCycles, MissExtra: missExtra,
		tags: make([]uint32, lines), valid: make([]bool, lines),
	}
}

// Access looks up addr, fills on miss, and returns the access cost in
// cycles.
func (c *Cache) Access(addr uint32) int64 {
	line := (addr / uint32(c.LineBytes)) % uint32(c.Lines)
	tag := addr / uint32(c.LineBytes) / uint32(c.Lines)
	if c.valid[line] && c.tags[line] == tag {
		c.Hits++
		return c.HitCycles
	}
	c.Misses++
	c.valid[line] = true
	c.tags[line] = tag
	return c.HitCycles + c.MissExtra
}

// HitRate returns the fraction of accesses that hit.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Invalidate clears the cache.
func (c *Cache) Invalidate() {
	for i := range c.valid {
		c.valid[i] = false
	}
}
