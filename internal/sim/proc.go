package sim

import "fmt"

// Proc is a simulation process: a goroutine that runs in strict
// lock-step handoff with the kernel, so that at any instant at most
// one process body (or event handler) executes. This gives
// sequential, deterministic semantics to model code written in a
// blocking style (Delay, Wait, channel Get/Put) — the programming
// model section II-C of the paper argues for: internally sequential
// components communicating asynchronously.
//
// The handoff uses one single-token buffered channel per direction:
// each side deposits a token (a buffered send that never blocks,
// because strict alternation guarantees the buffer is empty) and then
// blocks receiving the other side's token. That is two channel
// operations per transfer of control instead of the four a pair of
// unbuffered rendezvous would cost — but it is still a goroutine
// switch per park, several times the cost of dispatching a callback
// event. Where a model parks on every event it dominates the profile:
// task-level execution (mapping.Execute, ExecutePipelined) ran at
// ~1 µs per kernel event as processes and ~130 ns as callbacks. Write
// hot models as event-handler continuations scheduled with
// Kernel.ScheduleH, as noc, mapping and rtos do, and keep Proc for
// models whose blocking style is the point (vp, ttdd, cic, osip).
type Proc struct {
	Name   string
	k      *Kernel
	resume chan struct{}
	yield  chan struct{}
	dead   bool
	// Killed is set when the process is terminated externally.
	Killed bool
}

// Spawn starts body as a new process at the current virtual time.
// The body begins executing when the kernel dispatches its activation
// event, not immediately.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.SpawnAfter(name, 0, body)
}

// SpawnAfter starts body as a new process after the given delay.
func (k *Kernel) SpawnAfter(name string, delay Time, body func(p *Proc)) *Proc {
	p := &Proc{
		Name:   name,
		k:      k,
		resume: make(chan struct{}, 1),
		yield:  make(chan struct{}, 1),
	}
	k.procs++
	go func() {
		<-p.resume
		defer func() {
			// A killed process unwinds via panic(procKilled); anything
			// else is a genuine model bug and is re-raised on the
			// kernel goroutine by poisoning the handoff.
			if r := recover(); r != nil && r != procKilled {
				p.dead = true
				p.k.procs--
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name, r))
			}
			p.dead = true
			p.k.procs--
			p.yield <- struct{}{}
		}()
		if !p.Killed {
			body(p)
		}
	}()
	k.ScheduleProc(delay, 0, p)
	return p
}

// procKilled is the sentinel used to unwind a killed process.
var procKilled = new(int)

// run transfers control to the process and blocks until it parks
// again (in Delay/Wait/…) or terminates.
func (p *Proc) run() {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// park gives control back to the kernel and blocks until resumed.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.resume
	if p.Killed {
		panic(procKilled)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Delay suspends the process for d units of virtual time.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	p.k.ScheduleProc(d, 0, p)
	p.park()
}

// Kill terminates the process the next time it would resume. If the
// process is currently parked it is woken immediately to unwind.
func (p *Proc) Kill() {
	if p.dead || p.Killed {
		return
	}
	p.Killed = true
	p.k.ScheduleProc(0, 0, p)
}

// Dead reports whether the process body has returned or been killed.
func (p *Proc) Dead() bool { return p.dead }

// LiveProcs returns the number of processes that have been spawned and
// have not yet terminated. Useful for leak checks in tests.
func (k *Kernel) LiveProcs() int { return k.procs }

// wakeAll schedules a zero-delay closure-free wake-up for every
// process on list, then truncates the list in place so its backing
// array is reused by the next round of waiters (no steady-state
// allocation). Shared by Signal.Broadcast, Queue and Resource.
func (k *Kernel) wakeAll(list *[]*Proc) {
	for _, p := range *list {
		k.ScheduleProc(0, 0, p)
	}
	*list = (*list)[:0]
}

// Signal is a broadcast wake-up point for processes (a condition
// variable in virtual time).
type Signal struct {
	k       *Kernel
	waiters []*Proc
	// Fires counts how many times the signal has been raised.
	Fires uint64
}

// NewSignal returns a signal bound to kernel k.
func (k *Kernel) NewSignal() *Signal { return &Signal{k: k} }

// Wait parks the process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes all waiting processes at the current time, in the
// order they started waiting. The wake-ups go through the kernel's
// closure-free ScheduleProc path and the waiter slice's backing array
// is retained, so a steady broadcast/re-wait cycle does not allocate.
func (s *Signal) Broadcast() {
	s.Fires++
	s.k.wakeAll(&s.waiters)
}
