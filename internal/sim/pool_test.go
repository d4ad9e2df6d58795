package sim

import (
	"slices"
	"testing"
)

// The event pool recycles fired and cancelled records; these tests pin
// the generation-counter semantics that make stale handles harmless.

func TestCancelStaleHandleIsNoOp(t *testing.T) {
	k := NewKernel()
	first := 0
	e1 := k.Schedule(1*Nanosecond, func() { first++ })
	k.Run()
	if first != 1 {
		t.Fatalf("first event fired %d times, want 1", first)
	}
	// e1's record is now on the free list; the next Schedule reuses it.
	second := 0
	e2 := k.Schedule(1*Nanosecond, func() { second++ })
	// Cancelling the stale handle must not touch the recycled record's
	// new occupant.
	k.Cancel(e1)
	k.Run()
	if second != 1 {
		t.Fatalf("stale Cancel killed the recycled event (fired %d times, want 1)", second)
	}
	k.Cancel(e2) // cancel-after-fire stays a no-op too
}

func TestCancelledRecordIsRecycledSafely(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(5*Nanosecond, func() { t.Fatal("cancelled event fired") })
	k.Cancel(e)
	if e.Pending() {
		t.Fatal("cancelled handle still pending")
	}
	fired := false
	k.Schedule(1*Nanosecond, func() { fired = true })
	k.Cancel(e) // double cancel on the now-recycled record: no-op
	k.Run()
	if !fired {
		t.Fatal("event scheduled after cancel did not fire")
	}
}

func TestEventHandleTimeAndPending(t *testing.T) {
	k := NewKernel()
	var zero Event
	if zero.Pending() || zero.Time() != -1 {
		t.Fatal("zero handle must be non-pending with Time() == -1")
	}
	e := k.Schedule(7*Nanosecond, func() {})
	if !e.Pending() || e.Time() != 7*Nanosecond {
		t.Fatalf("pending handle: Pending=%v Time=%v", e.Pending(), e.Time())
	}
	k.Run()
	if e.Pending() || e.Time() != -1 {
		t.Fatal("fired handle must be non-pending with Time() == -1")
	}
}

// Heavy churn with interleaved cancels: dispatch order must stay
// (time, priority, sequence)-sorted through pooling and heap removal.
func TestPooledOrderingUnderChurn(t *testing.T) {
	k := NewKernel()
	var got []int
	var handles []Event
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			i := i
			base := round * 20
			h := k.ScheduleP(Time(i%5)*Nanosecond, i%3, func() { got = append(got, base+i) })
			handles = append(handles, h)
		}
		// Cancel every 4th pending event, then drain.
		for i, h := range handles {
			if i%4 == 0 {
				k.Cancel(h)
			}
		}
		k.Run()
		handles = handles[:0]
	}
	want := 50 * 20 * 3 / 4
	if len(got) != want {
		t.Fatalf("executed %d events, want %d", len(got), want)
	}
}

// The free list must keep the kernel's steady-state footprint bounded:
// after heavy schedule/fire churn the pool holds at most the peak
// number of concurrently pending events.
func TestFreeListBounded(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10_000; i++ {
		k.Schedule(Nanosecond, func() {})
		k.Step()
	}
	if n := len(k.free); n > 2 {
		t.Fatalf("free list grew to %d records, want <= 2 (peak pending)", n)
	}
}

// recordHandler appends each arg it fires with to its log.
type recordHandler struct{ log *[]int }

func (h recordHandler) Fire(arg int) { *h.log = append(*h.log, arg) }

// TestHandlerPayloadsShareOneOrder checks that closure, handler and
// process events scheduled for one instant dispatch in insertion order,
// whichever entry point queued them.
func TestHandlerPayloadsShareOneOrder(t *testing.T) {
	k := NewKernel()
	var log []int
	h := recordHandler{&log}
	k.Spawn("p", func(p *Proc) {
		log = append(log, 1)
		k.Schedule(0, func() { log = append(log, 4) })
		k.AtH(k.Now(), h, 5)
		p.Delay(0)
		log = append(log, 6)
	})
	k.ScheduleH(0, h, 2)
	k.At(0, func() { log = append(log, 3) })
	k.Run()
	if want := []int{1, 2, 3, 4, 5, 6}; !slices.Equal(log, want) {
		t.Fatalf("dispatch order %v, want %v", log, want)
	}
}

// countHandler counts its firings by arg.
type countHandler struct{ fired [3]int }

func (h *countHandler) Fire(arg int) { h.fired[arg]++ }

// TestScheduleHandlerZeroAlloc pins the closure-free payload: on a warm
// kernel, scheduling an existing closure (wrapped in Func) and
// scheduling a Handler with an arg allocate nothing.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	fn := func() { n++ }
	h := &countHandler{}
	if a := testing.AllocsPerRun(100, func() {
		k.Schedule(Nanosecond, fn)
		k.Step()
	}); a != 0 {
		t.Fatalf("Schedule of an existing closure: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		k.ScheduleH(Nanosecond, h, 1)
		k.AtH(k.Now()+2*Nanosecond, h, 2)
		k.Run()
	}); a != 0 {
		t.Fatalf("ScheduleH/AtH: %v allocs/op, want 0", a)
	}
	if n != 101 || h.fired != [3]int{0, 101, 101} {
		t.Fatalf("fired closure %d times and handler %v, want 101 and [0 101 101]", n, h.fired)
	}
}

// Pending reports whether the handle still refers to a queued event.
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.index != notQueued
}

// Time returns the virtual time the event is scheduled for, or -1 once
// it has fired or been cancelled (its record may then describe a newer
// event).
func (ev Event) Time() Time {
	if !ev.Pending() {
		return -1
	}
	return ev.e.at
}
