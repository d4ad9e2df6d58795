package dse

import "fmt"

// Shard is one contiguous slice [Lo, Hi) of a sweep's expanded point
// list: the range of a lease a farm worker checkpointed locally
// because it could not deliver it to the coordinator. Contiguity
// keeps the file a literal substring (by point ID) of the whole
// sweep, so merging it with the coordinator's log is concatenation
// in ID order — no re-evaluation, no reordering ambiguity. Per-point
// seeds derive from the sweep seed alone (see Sweep.Points), which is
// what makes ranges evaluated on different hosts byte-compatible.
type Shard struct {
	// Index identifies this range among Count, 0-based. A lease
	// checkpoint records its range as 0 of 1.
	Index int `json:"index"`
	// Count is the number of ranges the writer split the sweep into.
	Count int `json:"count"`
	// Lo is the first point ID of the shard (inclusive).
	Lo int `json:"lo"`
	// Hi is one past the last point ID of the shard (exclusive). A
	// shard with Lo == Hi is empty — a worker whose whole lease was
	// stolen can checkpoint one — and its result file is header-only.
	Hi int `json:"hi"`
}

// String names the shard for progress and error messages.
func (s Shard) String() string {
	return fmt.Sprintf("shard %d/%d (points %d..%d)", s.Index, s.Count, s.Lo, s.Hi)
}

// EstCost estimates a point's relative evaluation cost. The farm
// sizes leases with it, charges tenants' DRR debts in it and derives
// the /status ETA from it. It is a planning heuristic, not a
// measurement: the pipelined fidelity scales with its iteration
// count, the RTOS job bag scales with job count, and the search
// heuristics multiply the number of candidate schedules evaluated.
// Only the ratio between point costs matters.
//
// vp points carry no weight of their own: refinement is closed-form
// (~130 ns, BenchmarkVPRefine/closed), so a vp point costs its
// mapping and task-level execution like its mvp twin —
// BenchmarkVPPointEval/reused measured 1.05x the same point at mvp
// (~55 vs ~50 us on a 2-vCPU 2.1 GHz Xeon).
//
// The two annealers are charged separately, at their measured cost
// over list scheduling on BenchmarkSweepPoint (synth16 on wireless,
// median of 6 runs on the same host): the makespan annealer, which
// reschedules a suffix of the static schedule per move, at 13x
// (anneal/mvp ~459 us vs list/mvp ~35 us), and the throughput
// annealer of the pipelined fidelity, an O(cores) load update per
// move, at 2.3x (anneal/pipe8 ~161 us vs list/pipe8 ~71 us).
func EstCost(p Point) float64 {
	c := 1.0 + 0.25*float64(p.Plat.CoreCount())
	switch p.Fidelity {
	case "pipe":
		it := p.Iterations
		if it <= 0 {
			it = 8
		}
		c *= 1 + float64(it)/4
	case "cal":
		// A cal point is task-level plus its share of the group's
		// probes. Each probe maps and executes once more at task
		// level (a group fit over K probes measured (1+K)x an mvp
		// evaluation on the same host), paid once per group by
		// whichever worker sees the group first; charging each member
		// half a probe keeps the estimate near the truth for the
		// usual two-member groups without knowing the group size here.
		c *= 1 + 0.5*float64(len(p.CalProbes))
	case "rtos":
		n := p.N
		if n <= 0 {
			n = 32
		}
		c *= 1 + float64(n)/16
	}
	switch p.Heuristic {
	case "anneal":
		if p.Fidelity == "pipe" {
			c *= 2.3
		} else {
			c *= 13
		}
	case "exhaustive":
		c *= 10
	}
	// A multi-app scenario maps and executes the union of its
	// constituent graphs, so its cost scales with the app count.
	if len(p.Apps) > 1 {
		c *= float64(len(p.Apps))
	}
	// A memory contention model adds a service event per cross-PE
	// payload on the execute path and an extra term per estimator
	// charge — a small constant factor, not a new simulation level.
	if p.Plat.Mem != "" {
		c *= 1.15
	}
	return c
}
