package mapping

import (
	"fmt"

	"mpsockit/internal/mem"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

// Executor is reusable scratch for the task-level executors Execute,
// ExecuteMulti and ExecutePipelined, in the idiom of Evaluator: the
// per-task, per-core and per-edge state of a run lives in slices that
// the next run resizes and clears instead of reallocating. The zero
// value is ready to use; the package-level functions run on a fresh
// one. An Executor is not safe for concurrent use. The PEBusy of the
// stats it returns, and ExecuteMulti's makespans, are its own scratch,
// valid until its next run, so a warm executor allocates nothing; the
// package-level functions' results are the caller's alone.
//
// Every task is a state machine on the platform kernel, and the
// executor itself is the sim.Handler of all its events: an event's
// arg names a task or an edge and what happened to it (fireStep,
// fireArrive, fireFabric), so a run schedules no closures. Each task
// returns to the kernel wherever the goroutine executors of
// procexec_test.go park — PE acquire, compute delay, transfer done,
// token get and put — and is resumed by one event in the same order,
// so the event stream is exactly theirs.
type Executor struct {
	a          *Assignment
	k          *sim.Kernel
	view       *taskgraph.View
	mem        mem.Model
	iterations int // pipelined iterations; 0 for a one-shot run

	tasks []execTask
	// held[pe] marks core pe taken; wait[pe] queues the tasks that
	// found it held. release wakes every queued task at delay 0, in
	// queue order, as sim.Resource.Release wakes its waiters, and each
	// re-contends when dispatched.
	held []bool
	wait [][]int
	busy []sim.Time
	// appMakespan[ai] is application ai's makespan (ExecuteMulti).
	appMakespan []sim.Time
	// Pipelined edge FIFOs hold pipeDepth tokens. Token values are
	// never read, so a FIFO is its occupancy plus the one task that can
	// be parked on each end (-1 for none): its consumer while empty,
	// its producer while full.
	tokens         []int
	getter, putter []int

	makespan sim.Time
	done     int // tasks that finished (every iteration, when pipelined)
}

// execTask is one task's state machine.
type execTask struct {
	pc   int
	next int // pipelined: index into the in- or out-edges of pc
	it   int // pipelined: completed iterations
	// pending counts a one-shot task's unarrived inputs.
	pending int
	app     int // ExecuteMulti span, or -1
	dur     sim.Time
	// sent: out-edge next's cross-PE transfer has completed.
	sent bool
}

// Task program counters. A one-shot task starts at pcAcquire once its
// last input arrives and finishes after pcCompute; a pipelined one
// loops pcGet..pcPut once per iteration.
const (
	pcGet     = iota // consuming input tokens from in[next]
	pcAcquire        // waiting for the PE
	pcCompute        // compute delay running
	pcPut            // producing output tokens to out[next]
)

// pipeDepth is the capacity of a pipelined edge FIFO.
const pipeDepth = 2

// An Executor event's arg is a task or edge index shifted left by
// fireBits, tagged with its kind in the low bits.
const (
	fireStep   = iota // task: resume its state machine
	fireArrive        // edge: payload arrived (one-shot: deliver to the consumer; pipelined: signal the producer)
	fireFabric        // edge: the fabric delivered it; book memory service before it arrives
	fireBits   = 2
)

// runKernel drains the executors' kernel. It is a variable so tests
// can substitute a stepping loop that records every dispatch time.
var runKernel = (*sim.Kernel).Run

// Execute runs the assignment on the event-driven platform model with
// genuine fabric contention (transfers share links) — the high-level
// "virtual platform" simulation of section IV. It uses the platform's
// kernel, which must be otherwise idle, and returns the measured
// makespan plus per-PE busy time and the fabric traffic of the run.
// It runs on a fresh Executor; Execute and ExecuteMulti share one
// state machine, so the two can never diverge.
func Execute(a *Assignment) (ExecStats, error) {
	return new(Executor).Execute(a)
}

// Execute is Execute on the executor's reused scratch.
func (ex *Executor) Execute(a *Assignment) (ExecStats, error) {
	if err := ex.bind(a, nil, 0); err != nil {
		return ExecStats{}, err
	}
	return ex.run()
}

// ExecutePipelined runs the mapped graph as a pipeline over
// `iterations` successive data sets (frames, blocks): every task
// fires once per iteration, consuming its predecessors' tokens for
// the same iteration through depth-bounded FIFO channels. This is how
// MAPS-mapped multimedia codecs actually earn their speedup — stage
// parallelism across consecutive frames — and the measurement behind
// the section IV "promising speedup results". It runs on a fresh
// Executor.
//
// A task woken on a FIFO or its PE re-checks like sim.Queue and
// sim.Resource waiters do, and a put blocked after a cross-PE
// transfer does not send again.
func ExecutePipelined(a *Assignment, iterations int) (ExecStats, error) {
	return new(Executor).ExecutePipelined(a, iterations)
}

// ExecutePipelined is ExecutePipelined on the executor's reused
// scratch.
func (ex *Executor) ExecutePipelined(a *Assignment, iterations int) (ExecStats, error) {
	if iterations <= 0 {
		return ExecStats{}, fmt.Errorf("mapping: iterations must be positive")
	}
	if err := ex.bind(a, nil, iterations); err != nil {
		return ExecStats{}, err
	}
	return ex.run()
}

// bind resets the scratch for one run of a: every task at its start
// state, every core free and idle, every FIFO empty, and the tasks of
// spans claimed by their applications.
func (ex *Executor) bind(a *Assignment, spans []taskgraph.Span, iterations int) error {
	g := a.Graph
	n, nPE := len(g.Tasks), len(a.Platform.Cores)
	ex.a, ex.k, ex.view, ex.mem = a, a.Platform.Kernel, g.View(), a.Platform.Mem
	ex.iterations, ex.makespan, ex.done = iterations, 0, 0
	start := pcAcquire
	if iterations > 0 {
		start = pcGet
	}
	ex.tasks = grow(ex.tasks, n)
	for id := range ex.tasks {
		ex.tasks[id] = execTask{pc: start, pending: len(ex.view.InEdges(id)), app: -1}
	}
	ex.held = grow(ex.held, nPE)
	clear(ex.held)
	// Keep each core's wait queue, including those beyond a smaller
	// platform's cores, for the next larger one.
	for len(ex.wait) < nPE {
		ex.wait = append(ex.wait, nil)
	}
	for pe := range ex.wait {
		ex.wait[pe] = ex.wait[pe][:0]
	}
	ex.busy = grow(ex.busy, nPE)
	clear(ex.busy)
	ex.appMakespan = grow(ex.appMakespan, len(spans))
	clear(ex.appMakespan)
	if iterations > 0 {
		nE := len(g.Edges)
		ex.tokens = grow(ex.tokens, nE)
		clear(ex.tokens)
		ex.getter, ex.putter = grow(ex.getter, nE), grow(ex.putter, nE)
		for e := 0; e < nE; e++ {
			ex.getter[e], ex.putter[e] = -1, -1
		}
	}
	return ex.claim(spans)
}

// run starts every ready task, drains the kernel and returns the
// run's stats.
func (ex *Executor) run() (ExecStats, error) {
	a, k := ex.a, ex.k
	if k == nil {
		return ExecStats{}, fmt.Errorf("mapping: platform has no kernel")
	}
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	for id := range ex.tasks {
		if ex.iterations > 0 || ex.tasks[id].pending == 0 {
			k.ScheduleH(0, ex, id<<fireBits|fireStep)
		}
	}
	runKernel(k)
	if n := len(ex.tasks); ex.done != n {
		if ex.iterations > 0 {
			return ExecStats{}, fmt.Errorf("mapping: pipeline stalled (%d/%d tasks finished)", ex.done, n)
		}
		return ExecStats{}, fmt.Errorf("mapping: executed %d/%d tasks (deadlock?)", ex.done, n)
	}
	return ExecStats{
		Makespan: ex.makespan,
		PEBusy:   ex.busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, nil
}

// Fire implements sim.Handler: it dispatches one event of a run.
func (ex *Executor) Fire(arg int) {
	x := arg >> fireBits
	switch arg & (1<<fireBits - 1) {
	case fireStep:
		ex.step(x)
	case fireArrive:
		ex.arrive(x)
	case fireFabric:
		e := &ex.a.Graph.Edges[x]
		if d := ex.mem.Service(ex.k.Now(), ex.a.TaskPE[e.From], ex.a.TaskPE[e.To], e.Bytes); d > 0 {
			ex.k.ScheduleH(d, ex, x<<fireBits|fireArrive)
		} else {
			ex.arrive(x)
		}
	}
}

// step runs task id's state machine until it has to wait.
func (ex *Executor) step(id int) {
	t := &ex.tasks[id]
	k, v := ex.k, ex.view
	pe := ex.a.TaskPE[id]
	for {
		switch t.pc {
		case pcGet:
			for in := v.InEdges(id); t.next < len(in); t.next++ {
				e := in[t.next].Edge
				if ex.tokens[e] == 0 {
					ex.getter[e] = id
					return
				}
				ex.tokens[e]--
				ex.wake(&ex.putter[e])
			}
			t.pc = pcAcquire
		case pcAcquire:
			if ex.held[pe] {
				ex.wait[pe] = append(ex.wait[pe], id)
				return
			}
			ex.held[pe] = true
			core := ex.a.Platform.Core(pe)
			t.dur = core.Cycles(v.CyclesOn(id, core.Class))
			t.pc = pcCompute
			k.ScheduleH(t.dur, ex, id<<fireBits|fireStep)
			return
		case pcCompute:
			ex.held[pe] = false
			for _, w := range ex.wait[pe] {
				k.ScheduleH(0, ex, w<<fireBits|fireStep)
			}
			ex.wait[pe] = ex.wait[pe][:0]
			ex.busy[pe] += t.dur
			if ex.iterations == 0 {
				ex.finish(id, pe)
				return
			}
			t.pc, t.next = pcPut, 0
		case pcPut:
			for out := v.OutEdges(id); t.next < len(out); t.next++ {
				oe := out[t.next]
				if dst := ex.a.TaskPE[oe.Task]; dst != pe && !t.sent {
					ex.transfer(pe, dst, oe.Bytes, oe.Edge)
					return
				}
				if ex.tokens[oe.Edge] >= pipeDepth {
					ex.putter[oe.Edge] = id
					return
				}
				t.sent = false
				ex.tokens[oe.Edge]++
				ex.wake(&ex.getter[oe.Edge])
			}
			if k.Now() > ex.makespan {
				ex.makespan = k.Now()
			}
			t.it++
			if t.it == ex.iterations {
				ex.done++
				return
			}
			t.pc, t.next = pcGet, 0
		}
	}
}

// finish completes one-shot task id on core pe and sends its outputs:
// a same-core successor's input arrives through one zero-delay event,
// a cross-core one through the fabric.
func (ex *Executor) finish(id, pe int) {
	now := ex.k.Now()
	if now > ex.makespan {
		ex.makespan = now
	}
	if ai := ex.tasks[id].app; ai >= 0 && now > ex.appMakespan[ai] {
		ex.appMakespan[ai] = now
	}
	ex.done++
	for _, oe := range ex.view.OutEdges(id) {
		if dst := ex.a.TaskPE[oe.Task]; dst == pe {
			ex.k.ScheduleH(0, ex, oe.Edge<<fireBits|fireArrive)
		} else {
			ex.transfer(pe, dst, oe.Bytes, oe.Edge)
		}
	}
}

// transfer sends edge's payload across the fabric. With a memory
// contention model the payload then queues for memory service
// (fireFabric) before it arrives; with none (nil Mem) the fabric's
// completion is the arrival — the same event stream as the simulator
// before the memory model existed.
func (ex *Executor) transfer(src, dst, bytes, edge int) {
	kind := fireArrive
	if ex.mem != nil {
		kind = fireFabric
	}
	ex.a.Platform.Fabric.Transfer(src, dst, bytes, ex, edge<<fireBits|kind)
}

// arrive handles edge's payload arriving. A one-shot consumer becomes
// ready with its last input. A pipelined producer, parked on the
// transfer, is woken through one more zero-delay event, as a
// sim.Signal broadcast does. An arrival cannot raise the makespan: the
// receiving task completes after it, or the run fails.
func (ex *Executor) arrive(edge int) {
	e := &ex.a.Graph.Edges[edge]
	if ex.iterations > 0 {
		ex.tasks[e.From].sent = true
		ex.k.ScheduleH(0, ex, e.From<<fireBits|fireStep)
		return
	}
	t := &ex.tasks[e.To]
	t.pending--
	if t.pending == 0 {
		ex.k.ScheduleH(0, ex, e.To<<fireBits|fireStep)
	}
}

// wake schedules the task parked on one end of a FIFO, if any.
func (ex *Executor) wake(w *int) {
	if *w >= 0 {
		ex.k.ScheduleH(0, ex, *w<<fireBits|fireStep)
		*w = -1
	}
}
