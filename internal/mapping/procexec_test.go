package mapping

import (
	"fmt"
	"strconv"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

// The goroutine executors the callback ones replaced, kept verbatim as
// the differential oracle of TestCallbackExecutorsMatchProcOracle and
// the /proc variants of the execution benchmarks: every task is a
// sim.Proc that parks in sim.Resource, sim.Queue and sim.Signal. The
// only edit is k.Run() -> runKernel(k), so the test can record every
// dispatch time of both executors.

func peName(i int) string   { return "pe" + strconv.Itoa(i) }
func edgeName(i int) string { return "e" + strconv.Itoa(i) }

// executeSpansProc is the shared execution core behind Execute and
// ExecuteMulti: event-driven one-shot execution with genuine fabric
// contention, plus per-span makespan tracking when spans are given.
// Span tracking adds no kernel events, so both entry points produce
// identical event streams and stats for the same assignment.
func executeSpansProc(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, nil, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	n := len(g.Tasks)
	appOf := make([]int, n)
	for i := range appOf {
		appOf[i] = -1
	}
	for ai, s := range spans {
		for id := s.Lo; id < s.Hi; id++ {
			appOf[id] = ai
		}
	}
	v := g.View()
	pending := make([]int, n) // unarrived inputs
	for id := range pending {
		pending[id] = len(v.InEdges(id))
	}
	peRes := make([]*sim.Resource, len(a.Platform.Cores))
	for i := range peRes {
		peRes[i] = k.NewResource(peName(i), 1)
	}
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	appMakespan := make([]sim.Time, len(spans))
	var makespan sim.Time
	done := 0
	var runTask func(id int)
	deliver := func(id int) {
		pending[id]--
		if pending[id] == 0 {
			runTask(id)
		}
	}
	runTask = func(id int) {
		k.Spawn(g.Tasks[id].Name, func(p *sim.Proc) {
			pe := a.TaskPE[id]
			core := a.Platform.Core(pe)
			peRes[pe].Acquire(p)
			dur := core.Cycles(g.Tasks[id].CyclesOn(core.Class))
			p.Delay(dur)
			peRes[pe].Release()
			busy[pe] += dur
			if p.Now() > makespan {
				makespan = p.Now()
			}
			if ai := appOf[id]; ai >= 0 && p.Now() > appMakespan[ai] {
				appMakespan[ai] = p.Now()
			}
			done++
			for _, oe := range v.OutEdges(id) {
				to := oe.Task
				if a.TaskPE[to] == pe {
					k.Schedule(0, func() { deliver(to) })
				} else {
					transferContended(a.Platform, pe, a.TaskPE[to], oe.Bytes, func() {
						if k.Now() > makespan {
							makespan = k.Now()
						}
						deliver(to)
					})
				}
			}
		})
	}
	for id := 0; id < n; id++ {
		if pending[id] == 0 {
			runTask(id)
		}
	}
	runKernel(k)
	if done != n {
		return ExecStats{}, nil, fmt.Errorf("mapping: executed %d/%d tasks (deadlock?)", done, n)
	}
	return ExecStats{
		Makespan: makespan,
		PEBusy:   busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, appMakespan, nil
}

// executePipelinedProc runs the mapped graph as a pipeline over
// `iterations` successive data sets (frames, blocks): every task
// fires once per iteration, consuming its predecessors' tokens for
// the same iteration through depth-bounded FIFO channels. This is how
// MAPS-mapped multimedia codecs actually earn their speedup — stage
// parallelism across consecutive frames — and the measurement behind
// the section IV "promising speedup results".
func executePipelinedProc(a *Assignment, iterations int) (ExecStats, error) {
	if iterations <= 0 {
		return ExecStats{}, fmt.Errorf("mapping: iterations must be positive")
	}
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	v := g.View()
	queues := make([]*sim.Queue, len(g.Edges)) // edge index -> token queue
	for i := range g.Edges {
		queues[i] = k.NewQueue(edgeName(i), 2)
	}
	peRes := make([]*sim.Resource, len(a.Platform.Cores))
	for i := range peRes {
		peRes[i] = k.NewResource(peName(i), 1)
	}
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	var makespan sim.Time
	finished := 0
	for id := range g.Tasks {
		id := id
		inEdges, outEdges := v.InEdges(id), v.OutEdges(id)
		pe := a.TaskPE[id]
		core := a.Platform.Core(pe)
		cycles := g.Tasks[id].CyclesOn(core.Class)
		k.Spawn(g.Tasks[id].Name, func(p *sim.Proc) {
			for it := 0; it < iterations; it++ {
				for _, ie := range inEdges {
					queues[ie.Edge].Get(p)
				}
				peRes[pe].Acquire(p)
				dur := core.Cycles(cycles)
				p.Delay(dur)
				peRes[pe].Release()
				busy[pe] += dur
				for _, oe := range outEdges {
					if a.TaskPE[oe.Task] != pe {
						done := k.NewSignal()
						transferContended(a.Platform, pe, a.TaskPE[oe.Task], oe.Bytes, func() { done.Broadcast() })
						done.Wait(p)
					}
					queues[oe.Edge].Put(p, it)
				}
				if p.Now() > makespan {
					makespan = p.Now()
				}
			}
			finished++
		})
	}
	runKernel(k)
	if finished != len(g.Tasks) {
		return ExecStats{}, fmt.Errorf("mapping: pipeline stalled (%d/%d tasks finished)", finished, len(g.Tasks))
	}
	return ExecStats{
		Makespan: makespan,
		PEBusy:   busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, nil
}
