package noc

import (
	"slices"
	"testing"
	"testing/quick"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

func TestMeshRouteXY(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 4, 4, 2*sim.Nanosecond, 8)
	// core 0 at (0,0), core 15 at (3,3): 3 X-hops then 3 Y-hops.
	links := m.route(0, 15)
	if len(links) != 6 {
		t.Fatalf("route length %d, want 6", len(links))
	}
	if m.Hops(0, 15) != 6 {
		t.Fatalf("hops = %d, want 6", m.Hops(0, 15))
	}
	if m.Hops(5, 5) != 0 {
		t.Fatal("self hops should be 0")
	}
}

func TestMeshTransferLatency(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 4, 1, 2*sim.Nanosecond, 8)
	var doneAt sim.Time = -1
	m.Transfer(0, 2, 64, sim.Func(func() { doneAt = k.Now() }), 0)
	k.Run()
	// 2 hops * 2ns header + 64B/8Bns = 8ns serialization = 12ns.
	want := 2*2*sim.Nanosecond + 8*sim.Nanosecond
	if doneAt != want {
		t.Fatalf("transfer done at %v, want %v", doneAt, want)
	}
	if got := m.EstLatency(0, 2, 64); got != want {
		t.Fatalf("EstLatency = %v, want %v", got, want)
	}
}

func TestMeshLocalTransfer(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 2, 2, 3*sim.Nanosecond, 8)
	var doneAt sim.Time = -1
	m.Transfer(1, 1, 1024, sim.Func(func() { doneAt = k.Now() }), 0)
	k.Run()
	if doneAt != 3*sim.Nanosecond {
		t.Fatalf("local transfer at %v, want hop latency", doneAt)
	}
}

func TestMeshContention(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 4, 1, 0, 8) // zero hop latency isolates serialization
	var t1, t2 sim.Time
	// Two transfers sharing the 0->1 link, issued simultaneously.
	m.Transfer(0, 3, 80, sim.Func(func() { t1 = k.Now() }), 0)
	m.Transfer(0, 2, 80, sim.Func(func() { t2 = k.Now() }), 0)
	k.Run()
	if t2 <= t1 {
		t.Fatalf("second transfer (%v) should finish after first (%v)", t2, t1)
	}
	if m.TotalWait == 0 {
		t.Fatal("contention wait not recorded")
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 4, 2, 0, 8)
	var t1, t2 sim.Time
	m.Transfer(0, 1, 80, sim.Func(func() { t1 = k.Now() }), 0)
	m.Transfer(6, 7, 80, sim.Func(func() { t2 = k.Now() }), 0)
	k.Run()
	if t1 != t2 {
		t.Fatalf("disjoint transfers should complete together: %v vs %v", t1, t2)
	}
	if m.TotalWait != 0 {
		t.Fatal("disjoint paths should not contend")
	}
}

func TestBusSerializesEverything(t *testing.T) {
	k := sim.NewKernel()
	b := NewBus(k, 2*sim.Nanosecond, 8)
	var finishes []sim.Time
	for i := 0; i < 4; i++ {
		b.Transfer(i, i+1, 64, sim.Func(func() { finishes = append(finishes, k.Now()) }), 0)
	}
	k.Run()
	per := 2*sim.Nanosecond + 8*sim.Nanosecond
	for i, f := range finishes {
		want := sim.Time(i+1) * per
		if f != want {
			t.Fatalf("transfer %d finished at %v, want %v", i, f, want)
		}
	}
	if b.TotalWait == 0 {
		t.Fatal("bus contention not recorded")
	}
}

func TestBusVsMeshScaling(t *testing.T) {
	// The E1 premise in miniature: with many disjoint flows, the mesh's
	// aggregate bandwidth beats the serialized bus.
	const n = 16
	flow := func(f interface {
		Transfer(src, dst, bytes int, h sim.Handler, arg int)
	}, k *sim.Kernel) sim.Time {
		var last sim.Time
		for i := 0; i < n; i += 2 {
			f.Transfer(i, i+1, 256, sim.Func(func() {
				if k.Now() > last {
					last = k.Now()
				}
			}), 0)
		}
		k.Run()
		return last
	}
	k1 := sim.NewKernel()
	meshDone := flow(NewMesh(k1, 4, 4, 2*sim.Nanosecond, 8), k1)
	k2 := sim.NewKernel()
	busDone := flow(DefaultBus(k2), k2)
	if meshDone >= busDone {
		t.Fatalf("mesh (%v) should beat bus (%v) on disjoint flows", meshDone, busDone)
	}
}

func TestMeshForCapacity(t *testing.T) {
	k := sim.NewKernel()
	for _, n := range []int{1, 2, 5, 16, 17, 64} {
		m := MeshFor(k, n)
		if m.W*m.H < n {
			t.Fatalf("MeshFor(%d) = %dx%d too small", n, m.W, m.H)
		}
	}
}

// Property: route(src,dst) length equals Manhattan distance and every
// transfer eventually completes exactly once.
func TestMeshRouteProperty(t *testing.T) {
	f := func(srcRaw, dstRaw uint8) bool {
		k := sim.NewKernel()
		m := NewMesh(k, 5, 5, sim.Nanosecond, 8)
		src := int(srcRaw) % 25
		dst := int(dstRaw) % 25
		if len(m.route(src, dst)) != m.Hops(src, dst) {
			return false
		}
		count := 0
		m.Transfer(src, dst, 32, sim.Func(func() { count++ }), 0)
		k.Run()
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEstLatencySplit: for every src != dst on meshes of 2–16 cores
// and on the bus, the pair and payload terms the mapping evaluator
// tabulates sum to EstLatency, and EstLatency equals the zero-load
// formula written out here (hops × hop latency plus serialization on
// the mesh, arbitration plus serialization on the bus, payloads ≤ 0
// clamped to one byte).
func TestEstLatencySplit(t *testing.T) {
	ser := func(bytes int, bpns int64) sim.Time {
		if bytes <= 0 {
			bytes = 1
		}
		return sim.Time((int64(bytes)+bpns-1)/bpns) * sim.Nanosecond
	}
	for _, bpns := range []int64{1, 3, 8} {
		payloads := []int{-1, 0, 1, int(bpns) - 1, int(bpns), int(bpns) + 1, 1 << 20}
		k := sim.NewKernel()
		bus := NewBus(k, 2*sim.Nanosecond, bpns)
		for n := 2; n <= 16; n++ {
			shape := MeshFor(k, n)
			m := NewMesh(k, shape.W, shape.H, 3*sim.Nanosecond, bpns)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					for _, b := range payloads {
						want := sim.Time(m.Hops(src, dst))*m.HopLatency + ser(b, bpns)
						if got := m.EstPairLatency(src, dst) + m.EstPayloadLatency(b); got != want || m.EstLatency(src, dst, b) != want {
							t.Fatalf("%s %d->%d %dB @%dB/ns: pair+payload %v, EstLatency %v, want %v",
								m.Name(), src, dst, b, bpns, got, m.EstLatency(src, dst, b), want)
						}
						want = bus.ArbLatency + ser(b, bpns)
						if got := bus.EstPairLatency(src, dst) + bus.EstPayloadLatency(b); got != want || bus.EstLatency(src, dst, b) != want {
							t.Fatalf("bus %d->%d %dB @%dB/ns: pair+payload %v, EstLatency %v, want %v",
								src, dst, b, bpns, got, bus.EstLatency(src, dst, b), want)
						}
					}
				}
			}
		}
	}
}

// TestFabricResetIsFresh: after Reset on a reset kernel, a contended
// transfer pattern completes at the times and with the counters of a
// freshly built fabric, for the mesh and the bus.
func TestFabricResetIsFresh(t *testing.T) {
	pattern := func(k *sim.Kernel, f platform.Fabric) ([]sim.Time, platform.FabricStats) {
		var done []sim.Time
		for i := 0; i < 4; i++ {
			f.Transfer(0, 3-i%2, 40*(i+1), sim.Func(func() { done = append(done, k.Now()) }), 0)
		}
		k.Run()
		return done, platform.FabricStatsOf(f)
	}
	builds := []func(*sim.Kernel) platform.Fabric{
		func(k *sim.Kernel) platform.Fabric { return NewMesh(k, 4, 1, 2*sim.Nanosecond, 8) },
		func(k *sim.Kernel) platform.Fabric { return DefaultBus(k) },
	}
	for _, build := range builds {
		fk := sim.NewKernel()
		wantDone, want := pattern(fk, build(fk))
		if want.Wait == 0 {
			t.Fatal("pattern saw no contention; the check would be vacuous")
		}
		k := sim.NewKernel()
		f := build(k)
		pattern(k, f)
		k.Reset()
		f.Reset()
		if s := platform.FabricStatsOf(f); s != (platform.FabricStats{}) {
			t.Fatalf("%s: Reset left stats %+v", f.Name(), s)
		}
		done, got := pattern(k, f)
		if got != want || !slices.Equal(done, wantDone) {
			t.Fatalf("%s: reset fabric delivered %v with %+v, fresh %v with %+v", f.Name(), done, got, wantDone, want)
		}
	}
}
