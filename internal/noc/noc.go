// Package noc implements the on-chip interconnects of the platform
// model: a distributed 2-D mesh network-on-chip with XY routing (the
// "scalable, fast and low-latency chip interconnect" section II-A of
// the paper calls for) and a centralized shared bus (the kind of
// "centralized construct" the same section argues a scalable design
// must avoid — kept as the comparison baseline).
//
// Both fabrics use a deterministic busy-until contention model: a
// transfer reserves each resource (link or bus) from max(arrival,
// resource-free time) for its serialization duration. This captures
// the first-order queueing behaviour that makes centralized fabrics
// collapse under core-count scaling without simulating individual
// flits.
package noc

import (
	"fmt"

	"mpsockit/internal/sim"
)

// Mesh is a W×H 2-D mesh NoC with dimension-ordered (XY) routing.
// Core i sits at node (i % W, i / W).
type Mesh struct {
	k *sim.Kernel
	// W and H are the mesh dimensions in nodes.
	W, H int
	// HopLatency is the router+link traversal latency per hop.
	HopLatency sim.Time
	// BytesPerNS is the link bandwidth in bytes per nanosecond.
	BytesPerNS int64

	// busyUntil[l] is the time link l becomes free. Links are indexed
	// by direction: for each node, 4 outgoing links (E, W, N, S).
	busyUntil []sim.Time

	// Transfers counts completed transfers; TotalWait accumulates
	// contention stalls across all transfers.
	Transfers uint64
	TotalWait sim.Time

	// routeBuf is reused by route so per-transfer routing does not
	// allocate. Model code runs single-threaded on the kernel, and
	// Transfer consumes the route before returning.
	routeBuf []int
}

// NewMesh returns a w×h mesh attached to kernel k with the given hop
// latency and per-link bandwidth.
func NewMesh(k *sim.Kernel, w, h int, hopLatency sim.Time, bytesPerNS int64) *Mesh {
	if w <= 0 || h <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if bytesPerNS <= 0 {
		panic("noc: bandwidth must be positive")
	}
	return &Mesh{
		k: k, W: w, H: h,
		HopLatency: hopLatency, BytesPerNS: bytesPerNS,
		busyUntil: make([]sim.Time, w*h*4),
	}
}

// MeshFor returns a roughly square mesh with capacity for n cores,
// with default latency (2 ns/hop) and bandwidth (8 B/ns).
func MeshFor(k *sim.Kernel, n int) *Mesh {
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	return NewMesh(k, w, h, 2*sim.Nanosecond, 8)
}

// Name implements platform.Fabric.
func (m *Mesh) Name() string { return fmt.Sprintf("mesh%dx%d", m.W, m.H) }

func (m *Mesh) nodeOf(core int) (x, y int) { return core % m.W, core / m.W }

const (
	dirE = 0
	dirW = 1
	dirN = 2
	dirS = 3
)

// route returns the link indices a packet traverses from src to dst
// under XY routing (X first, then Y). The slice is the mesh's reused
// buffer — valid until the next route call.
func (m *Mesh) route(src, dst int) []int {
	sx, sy := m.nodeOf(src)
	dx, dy := m.nodeOf(dst)
	links := m.routeBuf[:0]
	x, y := sx, sy
	for x != dx {
		dir := dirE
		if dx < x {
			dir = dirW
		}
		links = append(links, (y*m.W+x)*4+dir)
		if dx < x {
			x--
		} else {
			x++
		}
	}
	for y != dy {
		dir := dirS
		if dy < y {
			dir = dirN
		}
		links = append(links, (y*m.W+x)*4+dir)
		if dy < y {
			y--
		} else {
			y++
		}
	}
	m.routeBuf = links
	return links
}

// Hops returns the Manhattan hop count between two cores.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.nodeOf(src)
	dx, dy := m.nodeOf(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (m *Mesh) serialization(bytes int) sim.Time {
	if bytes <= 0 {
		bytes = 1
	}
	ns := (int64(bytes) + m.BytesPerNS - 1) / m.BytesPerNS
	return sim.Time(ns) * sim.Nanosecond
}

// Transfer implements platform.Fabric. The payload claims each link on
// the XY route in order; each claim starts when both the payload head
// has arrived and the link is free (wormhole-style approximation).
func (m *Mesh) Transfer(src, dst, bytes int, h sim.Handler, arg int) {
	now := m.k.Now()
	if src == dst {
		// Local: one local-store hop.
		m.k.ScheduleH(m.HopLatency, h, arg)
		return
	}
	ser := m.serialization(bytes)
	head := now
	var wait sim.Time
	for _, l := range m.route(src, dst) {
		start := head
		if m.busyUntil[l] > start {
			wait += m.busyUntil[l] - start
			start = m.busyUntil[l]
		}
		m.busyUntil[l] = start + ser
		head = start + m.HopLatency
	}
	finish := head + ser // tail drains after the head arrives
	m.Transfers++
	m.TotalWait += wait
	m.k.AtH(finish, h, arg)
}

// EstLatency implements platform.Fabric: zero-load latency.
func (m *Mesh) EstLatency(src, dst, bytes int) sim.Time {
	if src == dst {
		return m.HopLatency
	}
	return m.EstPairLatency(src, dst) + m.EstPayloadLatency(bytes)
}

// EstPairLatency implements platform.Fabric: the head's hop latency
// along the XY route.
func (m *Mesh) EstPairLatency(src, dst int) sim.Time {
	return sim.Time(m.Hops(src, dst)) * m.HopLatency
}

// EstPayloadLatency implements platform.Fabric: the payload's
// serialization on one link.
func (m *Mesh) EstPayloadLatency(bytes int) sim.Time { return m.serialization(bytes) }

// Stats implements platform.Fabric.
func (m *Mesh) Stats() (uint64, sim.Time) {
	return m.Transfers, m.TotalWait
}

// Reset implements platform.Fabric: every link free, counters zeroed.
func (m *Mesh) Reset() {
	clear(m.busyUntil)
	m.Transfers, m.TotalWait = 0, 0
}

// Bus is a single shared split-transaction bus: every transfer
// serializes through one arbiter. It is the centralized baseline for
// experiment E1.
type Bus struct {
	k *sim.Kernel
	// ArbLatency is the arbitration overhead per transfer.
	ArbLatency sim.Time
	// BytesPerNS is the bus bandwidth.
	BytesPerNS int64

	busyUntil sim.Time
	Transfers uint64
	TotalWait sim.Time
}

// NewBus returns a shared bus attached to kernel k.
func NewBus(k *sim.Kernel, arbLatency sim.Time, bytesPerNS int64) *Bus {
	if bytesPerNS <= 0 {
		panic("noc: bandwidth must be positive")
	}
	return &Bus{k: k, ArbLatency: arbLatency, BytesPerNS: bytesPerNS}
}

// DefaultBus matches the mesh's raw link speed (8 B/ns, 2 ns
// arbitration) so E1 compares topology, not link technology.
func DefaultBus(k *sim.Kernel) *Bus {
	return NewBus(k, 2*sim.Nanosecond, 8)
}

// Name implements platform.Fabric.
func (b *Bus) Name() string { return "sharedbus" }

func (b *Bus) serialization(bytes int) sim.Time {
	if bytes <= 0 {
		bytes = 1
	}
	ns := (int64(bytes) + b.BytesPerNS - 1) / b.BytesPerNS
	return sim.Time(ns) * sim.Nanosecond
}

// Transfer implements platform.Fabric: transfers queue on the single
// bus resource.
func (b *Bus) Transfer(src, dst, bytes int, h sim.Handler, arg int) {
	now := b.k.Now()
	start := now
	if b.busyUntil > start {
		b.TotalWait += b.busyUntil - start
		start = b.busyUntil
	}
	dur := b.ArbLatency + b.serialization(bytes)
	b.busyUntil = start + dur
	b.Transfers++
	b.k.AtH(start+dur, h, arg)
}

// EstLatency implements platform.Fabric.
func (b *Bus) EstLatency(src, dst, bytes int) sim.Time {
	return b.EstPairLatency(src, dst) + b.EstPayloadLatency(bytes)
}

// EstPairLatency implements platform.Fabric: every pair shares the
// one bus, so placement costs nothing.
func (b *Bus) EstPairLatency(src, dst int) sim.Time { return 0 }

// EstPayloadLatency implements platform.Fabric: arbitration plus
// serialization.
func (b *Bus) EstPayloadLatency(bytes int) sim.Time {
	return b.ArbLatency + b.serialization(bytes)
}

// Stats implements platform.Fabric.
func (b *Bus) Stats() (uint64, sim.Time) {
	return b.Transfers, b.TotalWait
}

// Reset implements platform.Fabric: the bus free, counters zeroed.
func (b *Bus) Reset() {
	b.busyUntil, b.Transfers, b.TotalWait = 0, 0, 0
}
