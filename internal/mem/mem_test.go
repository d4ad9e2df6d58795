package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"mpsockit/internal/sim"
)

func TestLocalStoreOwnership(t *testing.T) {
	ls := NewLocalStore(2, 1024, 1)
	if err := ls.WriteAt(2, 0, []byte{1, 2, 3}); err != nil {
		t.Fatalf("owner write rejected: %v", err)
	}
	got, err := ls.ReadAt(2, 0, 3)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("owner read failed: %v %v", got, err)
	}
	// Another core must fault — strict locality (section II-B).
	if _, err := ls.ReadAt(3, 0, 3); err == nil {
		t.Fatal("foreign read allowed")
	}
	if err := ls.WriteAt(0, 0, []byte{9}); err == nil {
		t.Fatal("foreign write allowed")
	}
}

func TestLocalStoreBounds(t *testing.T) {
	ls := NewLocalStore(0, 16, 1)
	if err := ls.WriteAt(0, 10, make([]byte, 10)); err == nil {
		t.Fatal("out-of-bounds write allowed")
	}
	var f *Fault
	_, err := ls.ReadAt(0, 16, 1)
	if err == nil {
		t.Fatal("out-of-bounds read allowed")
	}
	if !errorsAs(err, &f) {
		t.Fatalf("error type %T, want *Fault", err)
	}
}

func errorsAs(err error, target **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*target = f
	}
	return ok
}

func TestSharedMemoryRegions(t *testing.T) {
	sm := NewSharedMemory(4096, 10)
	if err := sm.AddRegion(&Region{Name: "core0", Base: 0, Size: 1024, Owner: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddRegion(&Region{Name: "core1", Base: 1024, Size: 1024, Owner: 1, ROAll: true}); err != nil {
		t.Fatal(err)
	}
	// Overlap must be rejected.
	if err := sm.AddRegion(&Region{Name: "bad", Base: 512, Size: 1024, Owner: 2}); err == nil {
		t.Fatal("overlapping region accepted")
	}

	if err := sm.WriteAt(0, 100, []byte{42}); err != nil {
		t.Fatalf("owner write rejected: %v", err)
	}
	if err := sm.WriteAt(1, 100, []byte{42}); err == nil {
		t.Fatal("foreign write to protected region allowed")
	}
	// ROAll region: anyone reads, only owner writes.
	if _, err := sm.ReadAt(0, 1024, 4); err != nil {
		t.Fatalf("shared read rejected: %v", err)
	}
	if err := sm.WriteAt(0, 1024, []byte{1}); err == nil {
		t.Fatal("foreign write to ROAll region allowed")
	}
	// Unregioned space is open.
	if err := sm.WriteAt(7, 3000, []byte{1}); err != nil {
		t.Fatalf("open write rejected: %v", err)
	}
	if len(sm.Faults) != 2 {
		t.Fatalf("fault log has %d entries, want 2", len(sm.Faults))
	}
}

func TestSharedMemoryWatch(t *testing.T) {
	sm := NewSharedMemory(256, 1)
	var seen []AccessKind
	sm.Watch = func(core int, addr uint32, size int, kind AccessKind) {
		seen = append(seen, kind)
	}
	_ = sm.WriteAt(0, 0, []byte{1})
	_, _ = sm.ReadAt(0, 0, 1)
	if len(seen) != 2 || seen[0] != Write || seen[1] != Read {
		t.Fatalf("watch saw %v", seen)
	}
}

func TestDMACopy(t *testing.T) {
	k := sim.NewKernel()
	fabric := &countingFabric{k: k, lat: 10 * sim.Nanosecond}
	src := NewLocalStore(0, 256, 1)
	dst := NewLocalStore(1, 256, 1)
	_ = src.WriteAt(0, 0, []byte("hello-dma"))
	d := NewDMA(k, 0, fabric, 5*sim.Nanosecond)
	var doneAt sim.Time
	k.Spawn("xfer", func(p *sim.Proc) {
		if err := d.Copy(p, src, 0, dst, 64, 9); err != nil {
			t.Errorf("copy failed: %v", err)
		}
		doneAt = p.Now()
	})
	k.Run()
	got, _ := dst.ReadAt(1, 64, 9)
	if string(got) != "hello-dma" {
		t.Fatalf("dst contains %q", got)
	}
	if doneAt != 15*sim.Nanosecond {
		t.Fatalf("copy completed at %v, want setup+fabric = 15ns", doneAt)
	}
	if fabric.calls != 1 || d.Transfers != 1 {
		t.Fatalf("fabric calls %d, dma transfers %d", fabric.calls, d.Transfers)
	}
}

func TestDMASerializesOnEngine(t *testing.T) {
	k := sim.NewKernel()
	fabric := &countingFabric{k: k, lat: 10 * sim.Nanosecond}
	a := NewLocalStore(0, 64, 1)
	b := NewLocalStore(1, 64, 1)
	d := NewDMA(k, 0, fabric, 5*sim.Nanosecond)
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("xfer", func(p *sim.Proc) {
			_ = d.Copy(p, a, 0, b, 0, 8)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	if len(finish) != 2 {
		t.Fatalf("finished %d copies", len(finish))
	}
	if finish[1] < 30*sim.Nanosecond {
		t.Fatalf("second copy at %v should wait for engine", finish[1])
	}
}

type countingFabric struct {
	k     *sim.Kernel
	lat   sim.Time
	calls int
}

func (f *countingFabric) Transfer(src, dst, bytes int, h sim.Handler, arg int) {
	f.calls++
	f.k.ScheduleH(f.lat, h, arg)
}

func TestCacheBehavior(t *testing.T) {
	c := NewCache(16, 4, 1, 10)
	// First access misses, second to the same line hits.
	if cost := c.Access(0); cost != 11 {
		t.Fatalf("cold miss cost %d, want 11", cost)
	}
	if cost := c.Access(4); cost != 1 {
		t.Fatalf("same-line hit cost %d, want 1", cost)
	}
	// Conflicting tag evicts: 0 and 64 map to the same line (4 lines * 16B).
	c.Access(64)
	if cost := c.Access(0); cost != 11 {
		t.Fatalf("conflict should miss, got %d", cost)
	}
	if c.HitRate() <= 0 || c.HitRate() >= 1 {
		t.Fatalf("hit rate %g out of (0,1)", c.HitRate())
	}
	c.Invalidate()
	if cost := c.Access(4); cost != 11 {
		t.Fatal("invalidate did not clear lines")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two line size accepted")
		}
	}()
	NewCache(12, 4, 1, 10)
}

// Property: local-store round trip preserves bytes for any in-bounds
// offset/payload.
func TestLocalStoreRoundTripProperty(t *testing.T) {
	f := func(off uint8, payload []byte) bool {
		ls := NewLocalStore(0, 1024, 1)
		if len(payload) > 512 {
			payload = payload[:512]
		}
		addr := uint32(off)
		if err := ls.WriteAt(0, addr, payload); err != nil {
			return false
		}
		got, err := ls.ReadAt(0, addr, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
