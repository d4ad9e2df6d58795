package sim

import (
	"testing"
)

// resetWorkload drives a representative mix of kernel features —
// callbacks, processes, queues, resources, signals, cancellation —
// and returns an event trace plus the final clock.
func resetWorkload(k *Kernel) ([]Time, Time) {
	var log []Time
	record := func() { log = append(log, k.Now()) }
	q := k.NewQueue("q", 2)
	r := k.NewResource("r", 1)
	s := k.NewSignal()
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("prod", func(p *Proc) {
			p.Delay(Time(10 * (i + 1)))
			q.Put(p, i)
			record()
		})
		k.Spawn("cons", func(p *Proc) {
			r.Acquire(p)
			q.Get(p)
			p.Delay(5)
			r.Release()
			record()
		})
	}
	k.Spawn("sig", func(p *Proc) {
		s.Wait(p)
		record()
	})
	k.Schedule(40, func() { s.Broadcast() })
	ev := k.Schedule(1000, func() { record() })
	k.Schedule(50, func() { k.Cancel(ev) })
	k.Run()
	return log, k.Now()
}

// TestKernelResetObservablyFresh: a reset kernel reproduces a fresh
// kernel's run exactly — same event trace, same clock, same Executed
// count — and Reset itself zeroes all observable state.
func TestKernelResetObservablyFresh(t *testing.T) {
	fresh := NewKernel()
	wantLog, wantNow := resetWorkload(fresh)
	wantExec := fresh.Executed

	k := NewKernel()
	resetWorkload(k)
	// Leave a pending event behind to prove Reset drops it.
	stale := k.Schedule(500, func() { t.Error("cancelled event fired after Reset") })
	k.Reset()

	if k.Now() != 0 || k.Executed != 0 || k.Pending() != 0 {
		t.Fatalf("Reset left state: now=%v executed=%d pending=%d", k.Now(), k.Executed, k.Pending())
	}
	if stale.Pending() {
		t.Fatal("pre-Reset event handle still pending")
	}
	k.Cancel(stale) // must be a harmless no-op
	k.Run()         // empty queue

	gotLog, gotNow := resetWorkload(k)
	if gotNow != wantNow || k.Executed != wantExec {
		t.Fatalf("reset kernel diverged: now %v/%v executed %d/%d", gotNow, wantNow, k.Executed, wantExec)
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("trace length %d != %d", len(gotLog), len(wantLog))
	}
	for i := range gotLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, gotLog[i], wantLog[i])
		}
	}
}

// TestKernelResetLiveProcsPanics: resetting under live processes must
// panic — their goroutines are parked in model code and the kernel
// cannot reclaim them.
func TestKernelResetLiveProcsPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("parked", func(p *Proc) {
		p.Delay(Forever / 2)
	})
	k.Step() // activate the process so it parks in Delay
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a live process did not panic")
		}
	}()
	k.Reset()
}
