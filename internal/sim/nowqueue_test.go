package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refKernel is the heap-only kernel the now-queue replaced, kept as
// the oracle of TestNowQueueMatchesHeapOracle: every event, zero-delay
// or not, goes through one binary heap ordered by (time, priority,
// sequence), with pooled records and generation-checked handles.
type refKernel struct {
	now      Time
	queue    []*event
	free     []*event
	seq      uint64
	executed uint64
	stats    KernelStats
}

func (k *refKernel) at(t Time, prio int, h Handler, arg int) Event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
		k.stats.PoolHits++
	} else {
		e = &event{}
		k.stats.PoolMisses++
	}
	k.stats.Scheduled++
	e.at, e.prio, e.seq, e.h, e.arg = t, prio, k.seq, h, arg
	k.seq++
	k.queue = append(k.queue, e)
	if n := len(k.queue); n > k.stats.HeapMax {
		k.stats.HeapMax = n
	}
	e.index = len(k.queue) - 1
	k.siftUp(e.index)
	return Event{e: e, gen: e.gen}
}

func (k *refKernel) recycle(e *event) {
	e.gen++
	e.h = nil
	e.index = notQueued
	k.free = append(k.free, e)
}

func (k *refKernel) cancel(ev Event) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.index == notQueued {
		return
	}
	k.stats.Cancelled++
	k.remove(e.index)
	k.recycle(e)
}

func (k *refKernel) step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue[0]
	k.remove(0)
	k.now = e.at
	k.executed++
	k.stats.Executed++
	h, arg := e.h, e.arg
	k.recycle(e)
	h.Fire(arg)
	return true
}

func (k *refKernel) runUntil(deadline Time) uint64 {
	start := k.executed
	for len(k.queue) > 0 && k.queue[0].at <= deadline {
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.executed - start
}

func (k *refKernel) reset() {
	for _, e := range k.queue {
		k.recycle(e)
	}
	k.queue = k.queue[:0]
	k.now, k.seq, k.executed = 0, 0, 0
}

func (k *refKernel) remove(i int) {
	q := k.queue
	e := q[i]
	n := len(q) - 1
	last := q[n]
	k.queue = q[:n]
	if i < n {
		k.queue[i] = last
		last.index = i
		k.siftDown(i)
		k.siftUp(last.index)
	}
	e.index = notQueued
}

func (k *refKernel) siftUp(i int) {
	q := k.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

func (k *refKernel) siftDown(i int) {
	q := k.queue
	n := len(q)
	e := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(q[r], q[c]) {
			c = r
		}
		if !eventLess(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
}

// oracleDriver runs one scenario on one kernel: the real Kernel (ref
// nil) or the heap-only oracle. Event IDs are handed out in schedule
// order, and what a firing event does comes from an RNG seeded by
// (scenario, event ID), so two drivers that dispatch the same sequence
// perform the same operations.
type oracleDriver struct {
	k       *Kernel
	ref     *refKernel
	seed    int64
	limit   int // events a scenario may schedule
	handles []Event
	log     []int
}

// Fire implements Handler: record the dispatch, then act.
func (d *oracleDriver) Fire(id int) {
	d.log = append(d.log, id)
	r := rand.New(rand.NewSource(d.seed*1_000_003 + int64(id)))
	for n := r.Intn(4); n > 0; n-- {
		d.schedule(r)
	}
	if r.Intn(4) == 0 {
		d.cancel(r)
	}
}

func (d *oracleDriver) now() Time {
	if d.ref != nil {
		return d.ref.now
	}
	return d.k.Now()
}

// schedule queues one event through a randomly chosen entry point:
// half of them zero-delay, priorities negative, zero and positive.
func (d *oracleDriver) schedule(r *rand.Rand) {
	if len(d.handles) >= d.limit {
		return
	}
	id := len(d.handles)
	var delay Time
	if r.Intn(2) == 0 {
		delay = Time(1 + r.Intn(5))
	}
	prio := 0
	switch r.Intn(6) {
	case 0:
		prio = -1 - r.Intn(2)
	case 1:
		prio = 1 + r.Intn(2)
	}
	via := r.Intn(5)
	if via >= 3 {
		prio = 0 // At and AtH queue at priority 0
	}
	var ev Event
	if d.ref != nil {
		ev = d.ref.at(d.ref.now+delay, prio, d, id)
	} else {
		switch via {
		case 0:
			if prio == 0 {
				ev = d.k.Schedule(delay, func() { d.Fire(id) })
			} else {
				ev = d.k.ScheduleP(delay, prio, func() { d.Fire(id) })
			}
		case 1:
			ev = d.k.ScheduleP(delay, prio, func() { d.Fire(id) })
		case 2:
			if prio == 0 {
				ev = d.k.ScheduleH(delay, d, id)
			} else {
				ev = d.k.ScheduleP(delay, prio, func() { d.Fire(id) })
			}
		case 3:
			ev = d.k.At(d.k.Now()+delay, func() { d.Fire(id) })
		default:
			ev = d.k.AtH(d.k.Now()+delay, d, id)
		}
	}
	d.handles = append(d.handles, ev)
}

// cancel cancels a random handle: queued (heap or now-queue), fired,
// cancelled or recycled — the last three are stale no-ops.
func (d *oracleDriver) cancel(r *rand.Rand) {
	if len(d.handles) == 0 {
		return
	}
	ev := d.handles[r.Intn(len(d.handles))]
	if d.ref != nil {
		d.ref.cancel(ev)
	} else {
		d.k.Cancel(ev)
	}
}

// snapshot is everything the two kernels must agree on.
type snapshot struct {
	Log      []int
	Now      Time
	Executed uint64
	Pending  int
	Stats    KernelStats
	Queued   []bool // per event ID: its handle still pending
	Result   uint64 // the last RunUntil's count, or Step's outcome
}

func (d *oracleDriver) snapshot(result uint64) snapshot {
	s := snapshot{Log: append([]int(nil), d.log...), Now: d.now(), Result: result}
	if d.ref != nil {
		s.Executed, s.Pending, s.Stats = d.ref.executed, len(d.ref.queue), d.ref.stats
	} else {
		s.Executed, s.Pending, s.Stats = d.k.Executed, d.k.Pending(), d.k.Stats()
	}
	for _, ev := range d.handles {
		s.Queued = append(s.Queued, ev.Pending())
	}
	return s
}

// op applies one top-level scenario operation and returns its result.
func (d *oracleDriver) op(kind int, arg Time, r *rand.Rand) uint64 {
	switch kind {
	case 0: // schedule a batch from outside any handler
		for i := 0; i < 1+int(arg); i++ {
			d.schedule(r)
		}
	case 1: // a few Steps
		var n uint64
		for i := Time(0); i < arg; i++ {
			if d.ref != nil && d.ref.step() || d.ref == nil && d.k.Step() {
				n++
			}
		}
		return n
	case 2: // RunUntil a deadline before, at or after Now
		deadline := d.now() + arg
		if d.ref != nil {
			return d.ref.runUntil(deadline)
		}
		return d.k.RunUntil(deadline)
	case 3: // Run to exhaustion
		if d.ref != nil {
			start := d.ref.executed
			for d.ref.step() {
			}
			return d.ref.executed - start
		}
		start := d.k.Executed
		d.k.Run()
		return d.k.Executed - start
	case 4:
		d.cancel(r)
	case 5: // Reset mid-run, pending events and all
		if d.ref != nil {
			d.ref.reset()
		} else {
			d.k.Reset()
		}
	}
	return 0
}

// TestNowQueueMatchesHeapOracle runs seeded scenarios through the
// kernel and the heap-only oracle in lock step: every top-level
// operation and every handler's nested Schedule/ScheduleP/ScheduleH/
// At/AtH and Cancel happen on both, and after each operation the
// dispatch sequence, Now, Executed, Pending, Stats, every handle's
// Pending and the operation's own result must agree.
func TestNowQueueMatchesHeapOracle(t *testing.T) {
	const scenarios = 600
	for seed := int64(1); seed <= scenarios; seed++ {
		k := &oracleDriver{k: NewKernel(), seed: seed, limit: 150}
		ref := &oracleDriver{ref: &refKernel{}, seed: seed, limit: 150}
		script := rand.New(rand.NewSource(seed))
		for step := 0; step < 40; step++ {
			kind := script.Intn(6)
			if kind == 5 && script.Intn(3) != 0 {
				kind = 1 // keep Reset rare enough for runs to build up
			}
			var arg Time
			switch kind {
			case 0, 1:
				arg = Time(script.Intn(6))
			case 2:
				arg = Time(script.Intn(9) - 3) // before, at and after Now
			}
			opSeed := script.Int63()
			got := k.op(kind, arg, rand.New(rand.NewSource(opSeed)))
			want := ref.op(kind, arg, rand.New(rand.NewSource(opSeed)))
			gs, ws := k.snapshot(got), ref.snapshot(want)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("seed %d, op %d (kind %d, arg %d):\n got %s\nwant %s", seed, step, kind, arg, describe(gs), describe(ws))
			}
		}
	}
}

func describe(s snapshot) string {
	log := s.Log
	if len(log) > 30 {
		log = log[len(log)-30:]
	}
	return fmt.Sprintf("now=%v executed=%d pending=%d result=%d stats=%+v log tail=%v", s.Now, s.Executed, s.Pending, s.Result, s.Stats, log)
}

// selfWake is a zero-delay event chain: each firing queues the next,
// as executor wake-ups and same-core deliveries do.
type selfWake struct {
	k    *Kernel
	left int
}

func (w *selfWake) Fire(int) {
	if w.left > 0 {
		w.left--
		w.k.ScheduleH(0, w, 0)
	}
}

// BenchmarkZeroDelay measures a zero-delay event — schedule plus
// dispatch — with timed events waiting in the heap behind it, so
// every Step merges the now-queue head with the heap top. It must
// report 0 allocs/op.
func BenchmarkZeroDelay(b *testing.B) {
	k := NewKernel()
	h := &countHandler{}
	for i := 0; i < 8; i++ {
		k.ScheduleH(Second, h, 1)
	}
	w := &selfWake{k: k, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	k.ScheduleH(0, w, 0)
	for k.Now() == 0 && k.Step() {
	}
	b.StopTimer()
	if w.left != 0 || h.fired[1] != 1 {
		b.Fatalf("chain left %d, timed events fired %d", w.left, h.fired[1])
	}
}
