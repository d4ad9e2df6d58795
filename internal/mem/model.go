// Package mem models memory-subsystem contention for design-space
// exploration, the mem= dimension of a sweep. Three models exist:
// ideal (a nil Model: infinite banks and bandwidth, zero service
// time), bank:BxC (B bank queues behind C shared DMA channels) and
// bw:G (one DMA engine with a G byte/ns budget). A design point
// attaches its model to the platform, and every cross-PE payload then
// queues for memory service after it crosses the interconnect.
//
// The models follow the noc contention idiom: a deterministic
// busy-until reservation per resource, a contention-free latency
// estimate for the mapping cost models, and cumulative transfer/wait counters
// that the sweep reads as a delta per run. A Model is reset per
// design point like the kernel. Its estimator and its service path
// both clamp non-positive payloads to one byte, matching the fabrics'
// serialization, so a zero-byte edge costs the same on the scoring
// and the simulation path.
package mem

import (
	"fmt"
	"strconv"
	"strings"

	"mpsockit/internal/sim"
)

// Model is the pluggable memory-subsystem contention interface. A nil
// Model is the ideal memory: infinite banks and bandwidth, zero
// service time — the exact pre-model behaviour.
type Model interface {
	Name() string
	// EstPairLatency and EstPayloadLatency are the contention-free
	// service-time estimate the mapping cost models add on top of the
	// platform.Fabric estimate for a cross-PE edge, split as the
	// fabric's is: a core-pair term plus a payload term. They must
	// allocate nothing.
	EstPairLatency(src, dst int) sim.Time
	EstPayloadLatency(bytes int) sim.Time
	// Service books one memory access starting at virtual time now and
	// returns the delay until it completes (queue wait included,
	// always positive). The caller schedules delivery that far in the
	// future; the model itself never touches the kernel.
	Service(now sim.Time, src, dst, bytes int) sim.Time
	// Stats returns the cumulative serviced-transfer count and queue
	// wait, mirroring platform.Fabric.Stats.
	Stats() (transfers uint64, wait sim.Time)
	// Reset clears the queues and counters, re-arming the model for
	// the next design point.
	Reset()
}

// Spec bounds: hostile sweep-file headers re-expand specs on every merge
// host, so token parameters are capped like cal:K probes are.
const (
	// MaxBanks bounds bank:BxC bank counts.
	MaxBanks = 64
	// MaxChannels bounds bank:BxC channel counts.
	MaxChannels = 8
	// MaxGBps bounds bw:G bandwidth budgets (bytes per nanosecond).
	MaxGBps = 1024
)

// Spec names one memory-model configuration of a sweep's mem=
// dimension: ideal (no contention), bank:BxC (B bank queues behind C
// shared channels) or bw:G (one DMA engine with a G byte/ns budget).
type Spec struct {
	// Kind is ideal, bank or bw.
	Kind string
	// Banks and Channels size the bank model's queue arrays.
	Banks    int
	Channels int
	// GBps is the bw model's bandwidth budget in bytes per nanosecond
	// (1 GB/s ≈ 1 byte/ns).
	GBps int64
}

// ParseSpec parses a mem= token: "ideal", "bank:BxC" or "bw:G".
func ParseSpec(tok string) (Spec, error) {
	if tok == "ideal" {
		return Spec{Kind: "ideal"}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "bank:"); ok {
		bs, cs, ok := strings.Cut(rest, "x")
		if !ok {
			return Spec{}, fmt.Errorf("mem: bad token %q (want bank:BxC, e.g. bank:4x2)", tok)
		}
		b, berr := strconv.Atoi(bs)
		c, cerr := strconv.Atoi(cs)
		if berr != nil || cerr != nil || b < 1 || b > MaxBanks || c < 1 || c > MaxChannels {
			return Spec{}, fmt.Errorf("mem: bad token %q (want bank:BxC, 1 <= B <= %d, 1 <= C <= %d)",
				tok, MaxBanks, MaxChannels)
		}
		return Spec{Kind: "bank", Banks: b, Channels: c}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "bw:"); ok {
		g, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || g < 1 || g > MaxGBps {
			return Spec{}, fmt.Errorf("mem: bad token %q (want bw:G, 1 <= G <= %d bytes/ns)", tok, MaxGBps)
		}
		return Spec{Kind: "bw", GBps: g}, nil
	}
	return Spec{}, fmt.Errorf("mem: unknown model %q (want ideal, bank:BxC or bw:G)", tok)
}

// String renders the spec back to its canonical token; parse → render
// → parse is the identity.
func (s Spec) String() string {
	switch s.Kind {
	case "bank":
		return fmt.Sprintf("bank:%dx%d", s.Banks, s.Channels)
	case "bw":
		return fmt.Sprintf("bw:%d", s.GBps)
	}
	return "ideal"
}

// Token renders the spec for embedding in a design point: the ideal
// model canonicalizes to the empty string, so a mem=ideal sweep
// expands to points byte-identical to a sweep with no mem= dimension
// at all — which is what keeps the default sweep's spec_hash stable.
func (s Spec) Token() string {
	if s.Kind == "ideal" || s.Kind == "" {
		return ""
	}
	return s.String()
}

// Build constructs the spec's model with the platform's memory timing
// (access latency per service, DMA bandwidth in bytes/ns). The ideal
// spec builds nil — no model attached, nothing charged.
func (s Spec) Build(access sim.Time, bytesPerNS int64) Model {
	switch s.Kind {
	case "bank":
		return NewBankModel(s.Banks, s.Channels, access, bytesPerNS)
	case "bw":
		return NewBWModel(access, s.GBps)
	}
	return nil
}

// serviceTime is the contention-free memory service time shared by
// every model: the fixed access latency plus payload serialization at
// the model's bandwidth. Non-positive payloads clamp to one byte,
// exactly like the noc fabrics' serialization, so estimator and
// simulator agree on zero-byte edges.
func serviceTime(access sim.Time, bytesPerNS int64, bytes int) sim.Time {
	if bytes <= 0 {
		bytes = 1
	}
	ns := (int64(bytes) + bytesPerNS - 1) / bytesPerNS
	return access + sim.Time(ns)*sim.Nanosecond
}

// BankModel models a banked shared memory behind a few DMA channels:
// an access queues on its destination bank and on the channel its
// (src, dst) pair hashes to, each a deterministic busy-until
// reservation. It captures the first-order effect DRAM bank conflicts
// have on mapped schedules — transfers into the same consumer
// serialize even when the fabric routes them on disjoint links.
type BankModel struct {
	// AccessTime is the fixed per-access service latency.
	AccessTime sim.Time
	// BytesPerNS is the per-channel burst bandwidth.
	BytesPerNS int64

	bankBusy []sim.Time
	chanBusy []sim.Time

	transfers uint64
	wait      sim.Time
}

// NewBankModel returns a banks×channels bank model.
func NewBankModel(banks, channels int, access sim.Time, bytesPerNS int64) *BankModel {
	if banks <= 0 || channels <= 0 || bytesPerNS <= 0 {
		panic("mem: bank model geometry must be positive")
	}
	return &BankModel{
		AccessTime: access, BytesPerNS: bytesPerNS,
		bankBusy: make([]sim.Time, banks),
		chanBusy: make([]sim.Time, channels),
	}
}

// Name implements Model.
func (m *BankModel) Name() string {
	return fmt.Sprintf("bank%dx%d", len(m.bankBusy), len(m.chanBusy))
}

// EstPairLatency implements Model: the zero-conflict service time
// does not depend on which cores talk.
func (m *BankModel) EstPairLatency(src, dst int) sim.Time { return 0 }

// EstPayloadLatency implements Model: the zero-conflict service time.
func (m *BankModel) EstPayloadLatency(bytes int) sim.Time {
	return serviceTime(m.AccessTime, m.BytesPerNS, bytes)
}

// Service implements Model: the access starts once both its
// destination bank and its channel are free, and occupies both for
// the service duration.
func (m *BankModel) Service(now sim.Time, src, dst, bytes int) sim.Time {
	bank := dst % len(m.bankBusy)
	ch := (src + dst) % len(m.chanBusy)
	start := now
	if m.bankBusy[bank] > start {
		start = m.bankBusy[bank]
	}
	if m.chanBusy[ch] > start {
		start = m.chanBusy[ch]
	}
	end := start + serviceTime(m.AccessTime, m.BytesPerNS, bytes)
	m.bankBusy[bank] = end
	m.chanBusy[ch] = end
	m.transfers++
	m.wait += start - now
	return end - now
}

// Stats implements Model.
func (m *BankModel) Stats() (uint64, sim.Time) { return m.transfers, m.wait }

// Reset implements Model.
func (m *BankModel) Reset() {
	for i := range m.bankBusy {
		m.bankBusy[i] = 0
	}
	for i := range m.chanBusy {
		m.chanBusy[i] = 0
	}
	m.transfers = 0
	m.wait = 0
}

// BWModel models one bandwidth-shared DMA engine: every access
// serializes through a single busy-until reservation at the budgeted
// bandwidth — the fallback-to-bandwidth-model strategy of coarse
// memory estimators, and the centralized counterpart to the bank
// model the way the bus is to the mesh.
type BWModel struct {
	// AccessTime is the fixed per-access service latency (DMA setup).
	AccessTime sim.Time
	// BytesPerNS is the engine's bandwidth budget.
	BytesPerNS int64

	busyUntil sim.Time
	transfers uint64
	wait      sim.Time
}

// NewBWModel returns a bandwidth-shared DMA model.
func NewBWModel(access sim.Time, bytesPerNS int64) *BWModel {
	if bytesPerNS <= 0 {
		panic("mem: bandwidth must be positive")
	}
	return &BWModel{AccessTime: access, BytesPerNS: bytesPerNS}
}

// Name implements Model.
func (m *BWModel) Name() string { return fmt.Sprintf("bw%d", m.BytesPerNS) }

// EstPairLatency implements Model: the zero-conflict service time
// does not depend on which cores talk.
func (m *BWModel) EstPairLatency(src, dst int) sim.Time { return 0 }

// EstPayloadLatency implements Model: the zero-conflict service time.
func (m *BWModel) EstPayloadLatency(bytes int) sim.Time {
	return serviceTime(m.AccessTime, m.BytesPerNS, bytes)
}

// Service implements Model: accesses queue on the single engine.
func (m *BWModel) Service(now sim.Time, src, dst, bytes int) sim.Time {
	start := now
	if m.busyUntil > start {
		m.wait += m.busyUntil - start
		start = m.busyUntil
	}
	end := start + serviceTime(m.AccessTime, m.BytesPerNS, bytes)
	m.busyUntil = end
	m.transfers++
	return end - now
}

// Stats implements Model.
func (m *BWModel) Stats() (uint64, sim.Time) { return m.transfers, m.wait }

// Reset implements Model.
func (m *BWModel) Reset() {
	m.busyUntil = 0
	m.transfers = 0
	m.wait = 0
}
