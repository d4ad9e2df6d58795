package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q", 4)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(p, i)
			p.Delay(1 * Nanosecond)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.Run()
	if len(got) != 10 {
		t.Fatalf("consumed %d, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
	if q.Puts != 10 || q.Gets != 10 {
		t.Fatalf("stats puts=%d gets=%d", q.Puts, q.Gets)
	}
}

func TestQueueBackPressure(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q", 2)
	var putTimes []Time
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			putTimes = append(putTimes, p.Now())
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Delay(100 * Nanosecond)
		for i := 0; i < 4; i++ {
			q.Get(p)
			p.Delay(10 * Nanosecond)
		}
	})
	k.Run()
	// First two puts are immediate; the third must block until the
	// consumer frees a slot at t=100ns.
	if putTimes[0] != 0 || putTimes[1] != 0 {
		t.Fatalf("first puts should be immediate: %v", putTimes)
	}
	if putTimes[2] != 100*Nanosecond {
		t.Fatalf("third put at %v, want 100ns (back-pressure)", putTimes[2])
	}
	if q.BlockedPutTime == 0 {
		t.Fatal("blocked-put time not accounted")
	}
}

func TestQueueTryPutGet(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q", 2)
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut should succeed while not full")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut should fail when full")
	}
	for _, want := range []int{1, 2} {
		if v, ok := q.TryGet(); !ok || v != want {
			t.Fatalf("TryGet = %v, %v, want %d (oldest first)", v, ok, want)
		}
	}
	if v, ok := q.TryGet(); ok {
		t.Fatalf("TryGet on an empty queue returned %v", v)
	}
}

func TestQueueUnbounded(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q", 0)
	for i := 0; i < 1000; i++ {
		if !q.TryPut(i) {
			t.Fatal("unbounded queue rejected a token")
		}
	}
	if q.MaxDepth != 1000 {
		t.Fatalf("max depth %d, want 1000", q.MaxDepth)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus", 1)
	inCrit := 0
	maxInCrit := 0
	for i := 0; i < 5; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			inCrit++
			if inCrit > maxInCrit {
				maxInCrit = inCrit
			}
			p.Delay(10 * Nanosecond)
			inCrit--
			r.Release()
		})
	}
	k.Run()
	if maxInCrit != 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent holders", maxInCrit)
	}
	if r.Acquisitions != 5 {
		t.Fatalf("acquisitions = %d, want 5", r.Acquisitions)
	}
	if r.ContendedTime == 0 {
		t.Fatal("contention time not accounted")
	}
}

// TestResourceCounting: a two-unit resource admits two holders at
// once; the third waits for the first release.
func TestResourceCounting(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("dma", 2)
	var got []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			got = append(got, p.Now())
			p.Delay(10 * Nanosecond)
			r.Release()
		})
	}
	k.RunUntil(5 * Nanosecond)
	if r.inUse != 2 || len(got) != 2 {
		t.Fatalf("in use = %d with %d holders, want 2", r.inUse, len(got))
	}
	k.Run()
	if want := []Time{0, 0, 10 * Nanosecond}; len(got) != 3 || got[2] != want[2] {
		t.Fatalf("acquired at %v, want %v", got, want)
	}
	if r.inUse != 0 {
		t.Fatalf("in use = %d after every release, want 0", r.inUse)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	k.NewResource("r", 1).Release()
}

// Property: any interleaving of bounded producers/consumers preserves
// token order and never exceeds capacity.
func TestQueueOrderProperty(t *testing.T) {
	f := func(capRaw uint8, prodDelay, consDelay uint8, n uint8) bool {
		capacity := int(capRaw%8) + 1
		count := int(n%64) + 1
		k := NewKernel()
		q := k.NewQueue("q", capacity)
		var got []int
		overCap := false
		k.Spawn("prod", func(p *Proc) {
			for i := 0; i < count; i++ {
				q.Put(p, i)
				if len(q.buf) > capacity {
					overCap = true
				}
				p.Delay(Time(prodDelay) * Nanosecond)
			}
		})
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < count; i++ {
				got = append(got, q.Get(p).(int))
				p.Delay(Time(consDelay) * Nanosecond)
			}
		})
		k.Run()
		if overCap || len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
