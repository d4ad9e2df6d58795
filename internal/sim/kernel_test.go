package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelEmptyRun(t *testing.T) {
	k := NewKernel()
	k.Run()
	if k.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", k.Now())
	}
	if k.Executed != 0 {
		t.Fatalf("executed %d events on empty kernel", k.Executed)
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	k.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	k.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30*Nanosecond {
		t.Fatalf("final time %v, want 30ns", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	k.ScheduleP(1*Nanosecond, 5, func() { order = append(order, "low") })
	k.ScheduleP(1*Nanosecond, -5, func() { order = append(order, "high") })
	k.ScheduleP(1*Nanosecond, 0, func() { order = append(order, "mid") })
	k.Run()
	if order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Fatalf("priority order wrong: %v", order)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10*Nanosecond, func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancel-after-fire must be safe.
	k.Cancel(e)
	e2 := k.Schedule(1*Nanosecond, func() {})
	k.Run()
	k.Cancel(e2)
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			k.Schedule(1*Nanosecond, rec)
		}
	}
	k.Schedule(0, rec)
	k.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if k.Now() != 49*Nanosecond {
		t.Fatalf("now = %v, want 49ns", k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i)*Microsecond, func() { count++ })
	}
	n := k.RunUntil(5 * Microsecond)
	if n != 5 || count != 5 {
		t.Fatalf("RunUntil executed %d (count %d), want 5", n, count)
	}
	if k.Now() != 5*Microsecond {
		t.Fatalf("now = %v, want 5us", k.Now())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(3 * Millisecond)
	if k.Now() != 3*Millisecond {
		t.Fatalf("idle clock not advanced: %v", k.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

// Property: for any set of (delay, priority) pairs, the kernel
// dispatches events in nondecreasing time order, and within one
// timestamp in nondecreasing priority then insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16, prios []int8) bool {
		k := NewKernel()
		type fired struct {
			at   Time
			prio int
			seq  int
		}
		var log []fired
		for i, d := range delays {
			p := 0
			if i < len(prios) {
				p = int(prios[i])
			}
			at := Time(d) * Nanosecond
			seq := i
			pr := p
			k.ScheduleP(at, pr, func() {
				log = append(log, fired{at, pr, seq})
			})
		}
		k.Run()
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if a.at > b.at {
				return false
			}
			if a.at == b.at && a.prio > b.prio {
				return false
			}
			if a.at == b.at && a.prio == b.prio && a.seq > b.seq {
				return false
			}
		}
		return len(log) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{1500 * Microsecond, "1.5ms"},
		{2 * Second, "2s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
