package mapping

import (
	"fmt"

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
// (both run one Executor state machine) — and additionally measures
// each application's own makespan, where spans are the union graph's
// per-application task-ID ranges (taskgraph.Union's second result).
// An application's makespan is the completion time of its last task
// while competing with every other application for cores and fabric,
// which is the per-app number a real-time requirement is checked
// against. It runs on a fresh Executor.
func ExecuteMulti(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	return new(Executor).ExecuteMulti(a, spans)
}

// ExecuteMulti is ExecuteMulti on the executor's reused scratch. The
// returned PEBusy and makespans are that scratch, valid until the
// executor's next run.
func (ex *Executor) ExecuteMulti(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	if err := ex.bind(a, spans, 0); err != nil {
		return ExecStats{}, nil, err
	}
	stats, err := ex.run()
	if err != nil {
		return ExecStats{}, nil, err
	}
	return stats, ex.appMakespan, nil
}

// claim assigns every task of spans to its application, rejecting
// spans outside the graph or overlapping one another.
func (ex *Executor) claim(spans []taskgraph.Span) error {
	n := len(ex.tasks)
	for ai, s := range spans {
		if s.Lo < 0 || s.Hi > n || s.Lo > s.Hi {
			return fmt.Errorf("mapping: span %d (%d..%d) outside graph of %d tasks", ai, s.Lo, s.Hi, n)
		}
		for id := s.Lo; id < s.Hi; id++ {
			if c := ex.tasks[id].app; c >= 0 {
				return fmt.Errorf("mapping: task %d claimed by spans %d and %d", id, c, ai)
			}
			ex.tasks[id].app = ai
		}
	}
	return nil
}
