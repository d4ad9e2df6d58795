package mapping

import (
	"fmt"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

// Multi-application execution: a union graph (taskgraph.Union)
// composes several applications' DAGs into one mappable graph, the
// Evaluator machinery maps it like any other graph — candidate
// scoring stays on the zero-allocation hot path, the union is just a
// bigger DAG — and ExecuteMulti runs the mapped scenario with every
// application active at once, reporting per-application makespans on
// top of the aggregate ExecStats.

// ExecuteMulti runs the assignment exactly like Execute — the same
// event-driven platform model, fabric contention and aggregate stats
// (both share one implementation, executeSpans) — and additionally
// measures each application's own makespan, where spans are the union
// graph's per-application task-ID ranges (taskgraph.Union's second
// result). An application's makespan is the completion time of its
// last task while competing with every other application for cores
// and fabric, which is the per-app number a real-time requirement is
// checked against.
func ExecuteMulti(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	n := len(a.Graph.Tasks)
	claimed := make([]int, n)
	for i := range claimed {
		claimed[i] = -1
	}
	for ai, s := range spans {
		if s.Lo < 0 || s.Hi > n || s.Lo > s.Hi {
			return ExecStats{}, nil, fmt.Errorf("mapping: span %d (%d..%d) outside graph of %d tasks", ai, s.Lo, s.Hi, n)
		}
		for id := s.Lo; id < s.Hi; id++ {
			if claimed[id] >= 0 {
				return ExecStats{}, nil, fmt.Errorf("mapping: task %d claimed by spans %d and %d", id, claimed[id], ai)
			}
			claimed[id] = ai
		}
	}
	return executeSpans(a, spans)
}

// executeSpans is the shared execution core behind Execute and
// ExecuteMulti: event-driven one-shot execution with genuine fabric
// contention, plus per-span makespan tracking when spans are given.
// Span tracking adds no kernel events, so both entry points produce
// identical event streams and stats for the same assignment.
//
// Every task is a kernel callback with one resume point, step,
// scheduled when its last input arrives, on every PE wake-up and when
// its compute delay ends: one event wherever the process executor
// (procexec_test.go) schedules a wake-up, in the same order.
func executeSpans(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
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
	pes := newPEArbiter(k, len(a.Platform.Cores))
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	appMakespan := make([]sim.Time, len(spans))
	var makespan sim.Time
	done := 0
	dur := make([]sim.Time, n) // compute time, set once the task holds its PE
	for id := range dur {
		dur[id] = -1
	}
	step := make([]func(), n)    // the task's resume point
	deliver := make([]func(), n) // one input of the task arrives
	for id := range step {
		id, pe := id, a.TaskPE[id]
		core := a.Platform.Core(pe)
		step[id] = func() {
			if dur[id] < 0 {
				if !pes.acquire(pe, step[id]) {
					return
				}
				dur[id] = core.Cycles(g.Tasks[id].CyclesOn(core.Class))
				k.Schedule(dur[id], step[id])
				return
			}
			pes.release(pe)
			busy[pe] += dur[id]
			now := k.Now()
			if now > makespan {
				makespan = now
			}
			if ai := appOf[id]; ai >= 0 && now > appMakespan[ai] {
				appMakespan[ai] = now
			}
			done++
			for _, oe := range v.OutEdges(id) {
				if to := oe.Task; a.TaskPE[to] == pe {
					k.Schedule(0, deliver[to])
				} else {
					transferContended(a.Platform, pe, a.TaskPE[to], oe.Bytes, deliver[to])
				}
			}
		}
		// An arrival cannot raise makespan: the receiving task
		// completes after it, or the run fails.
		deliver[id] = func() {
			pending[id]--
			if pending[id] == 0 {
				k.Schedule(0, step[id])
			}
		}
	}
	for id := 0; id < n; id++ {
		if pending[id] == 0 {
			k.Schedule(0, step[id])
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
