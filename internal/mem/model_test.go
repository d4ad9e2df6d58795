package mem

import (
	"testing"

	"mpsockit/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		tok  string
		want Spec
	}{
		{"ideal", Spec{Kind: "ideal"}},
		{"bank:4x2", Spec{Kind: "bank", Banks: 4, Channels: 2}},
		{"bank:1x1", Spec{Kind: "bank", Banks: 1, Channels: 1}},
		{"bank:64x8", Spec{Kind: "bank", Banks: 64, Channels: 8}},
		{"bw:8", Spec{Kind: "bw", GBps: 8}},
		{"bw:1024", Spec{Kind: "bw", GBps: 1024}},
	} {
		got, err := ParseSpec(tc.tok)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.tok, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.tok, got, tc.want)
		}
		if got.String() != tc.tok {
			t.Fatalf("Spec(%q).String() = %q", tc.tok, got.String())
		}
	}
	for _, bad := range []string{
		"", "dram", "bank", "bank:", "bank:4", "bank:x2", "bank:4x",
		"bank:0x2", "bank:65x1", "bank:4x0", "bank:4x9", "bank:-1x2",
		"bw", "bw:", "bw:0", "bw:1025", "bw:-8", "bw:eight", "ideal2",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestTokenCanonicalizesIdeal: the ideal spec embeds as the empty
// string — the property that keeps mem=ideal sweeps byte-identical to
// sweeps with no mem= dimension.
func TestTokenCanonicalizesIdeal(t *testing.T) {
	if tok := (Spec{Kind: "ideal"}).Token(); tok != "" {
		t.Fatalf("ideal token = %q, want empty", tok)
	}
	if tok := (Spec{}).Token(); tok != "" {
		t.Fatalf("zero-spec token = %q, want empty", tok)
	}
	if tok := (Spec{Kind: "bank", Banks: 4, Channels: 2}).Token(); tok != "bank:4x2" {
		t.Fatalf("bank token = %q", tok)
	}
	if m := (Spec{Kind: "ideal"}).Build(10*sim.Nanosecond, 8); m != nil {
		t.Fatalf("ideal spec built a model: %v", m)
	}
}

// TestServiceTimeClampsZeroBytes: estimator and service path both
// price non-positive payloads as one byte, matching the noc fabrics'
// serialization — zero-byte edges must cost the same everywhere.
func TestServiceTimeClampsZeroBytes(t *testing.T) {
	for _, m := range []Model{
		NewBankModel(4, 2, 10*sim.Nanosecond, 8),
		NewBWModel(10*sim.Nanosecond, 8),
	} {
		one := m.EstPairLatency(0, 1) + m.EstPayloadLatency(1)
		if got := m.EstPairLatency(0, 1) + m.EstPayloadLatency(0); got != one {
			t.Fatalf("%s: estimate for 0 bytes = %v, want %v", m.Name(), got, one)
		}
		if got := m.Service(0, 0, 1, 0); got != one {
			t.Fatalf("%s: Service(0 bytes) = %v, want %v", m.Name(), got, one)
		}
	}
}

// TestBankModelContention: accesses hitting the same bank serialize,
// accesses hitting disjoint banks and channels do not, wait
// accumulates only for the queued access, and Reset re-arms the model
// to a byte-identical replay.
func TestBankModelContention(t *testing.T) {
	m := NewBankModel(4, 2, 10*sim.Nanosecond, 8)
	svc := m.EstPayloadLatency(64) // 10ns access + 8ns serialization
	if svc != 18*sim.Nanosecond {
		t.Fatalf("service time = %v, want 18ns", svc)
	}
	// Same destination bank (dst 0) and channel: full serialization.
	d1 := m.Service(0, 0, 0, 64)
	d2 := m.Service(0, 0, 0, 64)
	if d1 != svc || d2 != 2*svc {
		t.Fatalf("same-bank back-to-back = %v, %v; want %v, %v", d1, d2, svc, 2*svc)
	}
	tr, wait := m.Stats()
	if tr != 2 || wait != svc {
		t.Fatalf("stats = %d transfers %v wait, want 2, %v", tr, wait, svc)
	}
	// Disjoint bank (dst 1) and channel ((0+1)%2=1): no queueing.
	if d := m.Service(0, 0, 1, 64); d != svc {
		t.Fatalf("disjoint access delayed %v, want %v", d, svc)
	}
	replay := []sim.Time{d1, d2}
	m.Reset()
	if tr, wait := m.Stats(); tr != 0 || wait != 0 {
		t.Fatalf("Reset left stats %d/%v", tr, wait)
	}
	for i, want := range replay {
		if got := m.Service(0, 0, 0, 64); got != want {
			t.Fatalf("post-Reset access %d = %v, want %v", i, got, want)
		}
	}
}

// TestBWModelSerializes: the single DMA engine serializes every
// access; starting after the engine drains costs no wait.
func TestBWModelSerializes(t *testing.T) {
	m := NewBWModel(5*sim.Nanosecond, 8)
	svc := m.EstPairLatency(2, 3) + m.EstPayloadLatency(16) // 5ns + 2ns
	d1 := m.Service(0, 0, 1, 16)
	d2 := m.Service(0, 2, 3, 16)
	if d1 != svc || d2 != 2*svc {
		t.Fatalf("serialized accesses = %v, %v; want %v, %v", d1, d2, svc, 2*svc)
	}
	// Arriving at the drain point queues for nothing.
	if d := m.Service(2*svc, 0, 1, 16); d != svc {
		t.Fatalf("post-drain access delayed %v, want %v", d, svc)
	}
	tr, wait := m.Stats()
	if tr != 3 || wait != svc {
		t.Fatalf("stats = %d transfers %v wait, want 3, %v", tr, wait, svc)
	}
	m.Reset()
	if d := m.Service(0, 0, 1, 16); d != svc {
		t.Fatalf("post-Reset access delayed %v, want %v", d, svc)
	}
}

// TestEstLatencySplit: over the spec bounds (every bank:BxC geometry
// and every bw:G budget), the pair and payload terms the mapping
// evaluator tabulates sum, for every src != dst, to access latency
// plus serialization with payloads ≤ 0 clamped to one byte.
func TestEstLatencySplit(t *testing.T) {
	const access = 10 * sim.Nanosecond
	type model struct {
		m    Model
		bpns int64
	}
	var models []model
	for b := 1; b <= MaxBanks; b++ {
		for c := 1; c <= MaxChannels; c++ {
			models = append(models, model{Spec{Kind: "bank", Banks: b, Channels: c}.Build(access, 8), 8})
		}
	}
	for g := int64(1); g <= MaxGBps; g++ {
		models = append(models, model{Spec{Kind: "bw", GBps: g}.Build(access, 8), g})
	}
	for _, mm := range models {
		m, bpns := mm.m, mm.bpns
		for _, b := range []int{-1, 0, 1, int(bpns) - 1, int(bpns), int(bpns) + 1, 1 << 20} {
			clamped := b
			if clamped <= 0 {
				clamped = 1
			}
			want := access + sim.Time((int64(clamped)+bpns-1)/bpns)*sim.Nanosecond
			for src := 0; src < 8; src++ {
				for dst := 0; dst < 8; dst++ {
					if src == dst {
						continue
					}
					if got := m.EstPairLatency(src, dst) + m.EstPayloadLatency(b); got != want {
						t.Fatalf("%s %d->%d %dB: pair+payload %v, want %v", m.Name(), src, dst, b, got, want)
					}
				}
			}
		}
	}
}
