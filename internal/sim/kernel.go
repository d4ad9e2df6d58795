// Package sim implements the deterministic discrete-event simulation
// kernel underneath every hardware and OS model in the toolkit.
//
// All platform components (cores, interconnect, DMA engines, RTOS
// schedulers, dataflow executors, the virtual platform) advance a
// shared virtual clock by executing events in a strict, reproducible
// order. Determinism is the property the paper's section VII builds
// its whole debugging argument on (non-intrusive suspension and
// reproducible defects), so the kernel guarantees it structurally:
// events at equal timestamps are ordered by (priority, insertion
// sequence), and simulated "concurrency" is cooperative — exactly one
// event handler or process body runs at a time.
//
// # Hot-path design: event pooling and one closure-free payload
//
// The kernel is the system-wide bottleneck, so its hot path is
// allocation-free in steady state:
//
//   - Event records are pooled. Fired and cancelled records go on a
//     free list and are recycled by the next Schedule instead of being
//     heap-allocated. Each record carries a generation counter that is
//     bumped on recycle; the public Event handle is a (record,
//     generation) value pair, so a stale handle — one whose record has
//     since been reused for a newer event — fails the generation check
//     and Cancel on it is a harmless no-op. Pooling never changes the
//     (time, priority, sequence) dispatch order, so event ordering is
//     byte-identical to an unpooled kernel.
//
//   - Every event carries one payload: a Handler and an int argument,
//     dispatched as h.Fire(arg). Schedule, ScheduleP and At wrap their
//     closure in Func, a pointer-shaped conversion that allocates
//     nothing; ScheduleProc queues the *Proc itself; and models that
//     would otherwise build a closure per event (mapping's executors,
//     the noc fabrics' completions) pass a long-lived Handler and
//     encode what to do in arg through ScheduleH and AtH.
//
//   - Zero-delay events skip the heap. An event queued for the current
//     instant at priority 0 — a wake-up, a hand-off, a same-core
//     delivery — goes on a FIFO now-queue instead of the binary heap.
//     Its entries share the current time and priority 0 and were
//     queued in rising sequence order, so Step merges the FIFO head
//     with the heap top under the heap's own (time, priority,
//     sequence) order and dispatches exactly the heap-only sequence;
//     time cannot advance while the now-queue holds an event.
package sim

import "fmt"

// Time is a point in virtual time, measured in picoseconds. The
// picosecond base lets per-core frequency scaling (section II-A of the
// paper calls for fine-grained frequency variability) express exact
// integer cycle periods for clocks up to 1 THz.
type Time int64

// Convenient virtual-time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel for "no deadline".
const Forever Time = 1<<63 - 1

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is an event payload: the kernel calls Fire with the arg the
// event was scheduled with. One long-lived Handler can stand for many
// kinds of event by encoding the kind in arg, so scheduling through it
// allocates nothing.
type Handler interface{ Fire(arg int) }

// Func adapts a closure to Handler. A func value is pointer-shaped, so
// the conversion to Handler does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire(int) { f() }

// procWake is the payload of a process wake-up. It is a distinct
// pointer type so that Proc itself gains no exported Fire.
type procWake Proc

func (w *procWake) Fire(int) { (*Proc)(w).run() }

// event is the pooled scheduling record.
type event struct {
	at   Time
	prio int
	seq  uint64
	gen  uint64
	h    Handler
	arg  int
	// index is the record's heap position (>= 0), notQueued, or, for
	// a now-queue entry at slot i, nowSlot(i) (<= -2).
	index int
}

// notQueued is the index of a record in neither queue.
const notQueued = -1

// nowSlot encodes now-queue slot i as an event index; it is its own
// inverse.
func nowSlot(i int) int { return -2 - i }

// Event is a cancellable handle to a scheduled callback or wake-up.
// Events are single-shot; cancelling an already-fired,
// already-cancelled, or zero-valued handle is a no-op. The handle is a
// value pair (record pointer, generation): the kernel recycles fired
// records through a free list, and the generation check makes a stale
// handle harmless even after its record has been reused.
type Event struct {
	e   *event
	gen uint64
}

// KernelStats are the kernel's observability counters: plain fields
// bumped inline on the (single-goroutine) hot path, so instrumentation
// costs an increment and allocates nothing. Unlike Kernel.Executed,
// the stats are monotonic for the kernel's whole lifetime — Reset
// preserves them — because what they measure (pool effectiveness,
// heap pressure across reuse) only exists across resets. Read them
// with Kernel.Stats.
type KernelStats struct {
	// Scheduled counts events queued (Schedule/ScheduleP/
	// ScheduleProc/ScheduleH/At/AtH) since construction.
	Scheduled uint64
	// Executed counts events dispatched since construction (the
	// monotonic twin of Kernel.Executed, which Reset zeroes).
	Executed uint64
	// Cancelled counts events removed by Cancel before firing.
	Cancelled uint64
	// PoolHits counts event records recycled from the free list;
	// PoolMisses counts fresh heap allocations. Hits/(Hits+Misses) is
	// the pool hit rate — near 1.0 in steady state.
	PoolHits uint64
	// PoolMisses counts event records that had to be heap-allocated.
	PoolMisses uint64
	// HeapMax is the high-water pending-event depth: the heap plus
	// the now-queue, the most events ever queued at once.
	HeapMax int
}

// Kernel is a discrete-event simulator instance. It is not safe for
// concurrent use; all model code runs on the kernel's goroutine (or in
// lock-step handoff with it, for processes).
type Kernel struct {
	now   Time
	queue []*event // binary heap of every other pending event
	// nowq[nowHead:] is the now-queue of zero-delay priority-0 events
	// at time now, in sequence order; a cancelled entry leaves a nil
	// slot. nowLive counts its live entries: while it is positive
	// nowq[nowHead] is live, and when it drops to 0 nowq is emptied.
	nowq    []*event
	nowHead int
	nowLive int
	free    []*event
	seq     uint64
	// Executed counts events dispatched since construction; useful as
	// a progress measure and in tests.
	Executed uint64
	// procs tracks live processes so Drain can detect leaks in tests.
	procs int
	stats KernelStats
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) + k.nowLive }

// Schedule queues fn to run after delay, with priority 0. A negative
// delay panics: virtual time cannot run backwards.
func (k *Kernel) Schedule(delay Time, fn func()) Event {
	return k.ScheduleP(delay, 0, fn)
}

// ScheduleP queues fn to run after delay with an explicit priority.
// Lower priorities run first among events with equal timestamps.
func (k *Kernel) ScheduleP(delay Time, prio int, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return k.at(k.now+delay, prio, Func(fn), 0)
}

// ScheduleH queues h.Fire(arg) to run after delay, with priority 0.
// It is Schedule for models that keep one Handler and tell their
// events apart by arg: nothing is allocated per event.
func (k *Kernel) ScheduleH(delay Time, h Handler, arg int) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return k.at(k.now+delay, 0, h, arg)
}

// ScheduleProc queues a wake-up of process p after delay. This is the
// path used by Delay, Signal, Queue and Resource: the payload is p
// itself, so nothing is allocated in steady state. Dispatching the
// event resumes p exactly like a Schedule(delay, func() { p.run() })
// would, in the same (time, priority, insertion) order.
func (k *Kernel) ScheduleProc(delay Time, prio int, p *Proc) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return k.at(k.now+delay, prio, (*procWake)(p), 0)
}

// At queues fn to run at absolute time t (>= Now).
func (k *Kernel) At(t Time, fn func()) Event {
	return k.AtH(t, Func(fn), 0)
}

// AtH queues h.Fire(arg) to run at absolute time t (>= Now).
func (k *Kernel) AtH(t Time, h Handler, arg int) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, k.now))
	}
	return k.at(t, 0, h, arg)
}

func (k *Kernel) at(t Time, prio int, h Handler, arg int) Event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		k.stats.PoolHits++
	} else {
		e = &event{}
		k.stats.PoolMisses++
	}
	k.stats.Scheduled++
	e.at, e.prio, e.seq, e.h, e.arg = t, prio, k.seq, h, arg
	k.seq++
	if t == k.now && prio == 0 {
		k.nowPush(e)
	} else {
		k.heapPush(e)
	}
	if n := k.Pending(); n > k.stats.HeapMax {
		k.stats.HeapMax = n
	}
	return Event{e: e, gen: e.gen}
}

// recycle bumps the record's generation (invalidating outstanding
// handles) and returns it to the free list.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.h = nil
	e.index = notQueued
	k.free = append(k.free, e)
}

// Cancel removes a queued event. Safe to call on fired, cancelled or
// zero-valued handles: the generation check turns those into no-ops.
func (k *Kernel) Cancel(ev Event) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.index == notQueued {
		return
	}
	k.stats.Cancelled++
	if e.index >= 0 {
		k.heapRemove(e.index)
	} else {
		k.nowRemove(nowSlot(e.index))
	}
	k.recycle(e)
}

// Stats returns the kernel's monotonic observability counters. They
// survive Reset — pool hit rate and heap high-water are precisely
// about behavior across kernel reuse — and are a pure side channel:
// reading them never perturbs event order or timing.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Step executes the single next event. It returns false when the queue
// is empty.
func (k *Kernel) Step() bool {
	var e *event
	switch {
	case k.nowLive > 0 && (len(k.queue) == 0 || !eventLess(k.queue[0], k.nowq[k.nowHead])):
		e = k.nowq[k.nowHead]
		k.nowRemove(k.nowHead)
	case len(k.queue) > 0:
		e = k.heapPop()
	default:
		return false
	}
	if e.at < k.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	k.now = e.at
	k.Executed++
	k.stats.Executed++
	h, arg := e.h, e.arg
	// Recycle before dispatch: the handler may schedule new events and
	// reuse this record immediately; h/arg were copied out above.
	k.recycle(e)
	h.Fire(arg)
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to the deadline (if the simulation did not already pass
// it). It returns the number of events executed.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	start := k.Executed
	for k.nextAt() <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.Executed - start
}

// RunFor runs for d units of virtual time from the current instant.
func (k *Kernel) RunFor(d Time) uint64 {
	return k.RunUntil(k.now + d)
}

// Reset returns the kernel to its initial state — empty event queue,
// time zero, sequence zero, zero Executed — while keeping the pooled
// event records, so a reset kernel behaves exactly like a freshly
// constructed one but re-runs without re-warming the pool. Pending
// events are cancelled (their records recycled, outstanding handles
// invalidated by the generation bump). Reset panics if live processes
// remain: their goroutines are parked inside model code and cannot be
// reclaimed, so such a kernel must be discarded instead. The Stats
// counters are deliberately preserved — they measure behavior across
// resets (pool hit rate, heap high-water) and are not observable
// simulation state.
func (k *Kernel) Reset() {
	if k.procs != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live processes", k.procs))
	}
	for i, e := range k.queue {
		k.queue[i] = nil
		k.recycle(e)
	}
	k.queue = k.queue[:0]
	for _, e := range k.nowq[k.nowHead:] {
		if e != nil {
			k.recycle(e)
		}
	}
	clear(k.nowq)
	k.nowq, k.nowHead, k.nowLive = k.nowq[:0], 0, 0
	k.now = 0
	k.seq = 0
	k.Executed = 0
}

// nextAt returns the time of the next event to dispatch, or Forever
// when none is queued. A now-queue entry is due now, which no heap
// event precedes.
func (k *Kernel) nextAt() Time {
	switch {
	case k.nowLive > 0:
		return k.now
	case len(k.queue) > 0:
		return k.queue[0].at
	}
	return Forever
}

// --- Now-queue (FIFO of zero-delay priority-0 events) ---

// nowPush appends e to the now-queue, first squeezing out consumed and
// cancelled slots when the backing array is full of them.
func (k *Kernel) nowPush(e *event) {
	if len(k.nowq) == cap(k.nowq) && k.nowLive < len(k.nowq) {
		n := 0
		for _, x := range k.nowq[k.nowHead:] {
			if x != nil {
				k.nowq[n] = x
				x.index = nowSlot(n)
				n++
			}
		}
		clear(k.nowq[n:])
		k.nowq, k.nowHead = k.nowq[:n], 0
	}
	e.index = nowSlot(len(k.nowq))
	k.nowq = append(k.nowq, e)
	k.nowLive++
}

// nowRemove takes the live entry at slot i out of the now-queue and
// moves the head to the next live entry.
func (k *Kernel) nowRemove(i int) {
	k.nowq[i].index = notQueued
	k.nowq[i] = nil
	k.nowLive--
	if k.nowLive == 0 {
		k.nowq, k.nowHead = k.nowq[:0], 0
		return
	}
	for k.nowq[k.nowHead] == nil {
		k.nowHead++
	}
}

// --- Event heap (inlined binary heap; avoids container/heap's
// interface dispatch on the hottest code in the system) ---

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(e *event) {
	k.queue = append(k.queue, e)
	e.index = len(k.queue) - 1
	k.siftUp(e.index)
}

func (k *Kernel) heapPop() *event {
	q := k.queue
	e := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		k.queue[0] = last
		last.index = 0
		k.siftDown(0)
	}
	e.index = notQueued
	return e
}

func (k *Kernel) heapRemove(i int) {
	q := k.queue
	e := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i < n {
		k.queue[i] = last
		last.index = i
		k.siftDown(i)
		k.siftUp(last.index)
	}
	e.index = notQueued
}

func (k *Kernel) siftUp(i int) {
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

func (k *Kernel) siftDown(i int) {
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
