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
// Files written before the -shard planner was retired also carry
// "index" and "count" members; decoding ignores them.
type Shard struct {
	// Lo is the first point ID of the shard (inclusive).
	Lo int `json:"lo"`
	// Hi is one past the last point ID of the shard (exclusive). A
	// shard with Lo == Hi is empty — a worker whose whole lease was
	// stolen can checkpoint one — and its result file is header-only.
	Hi int `json:"hi"`
}

// String names the shard for progress and error messages.
func (s Shard) String() string {
	return fmt.Sprintf("shard (points %d..%d)", s.Lo, s.Hi)
}

// EstCost estimates a point's relative evaluation cost. The farm
// sizes leases with it, charges tenants' DRR debts in it and derives
// the /status ETA from it. It is a planning heuristic, not a
// measurement: the pipelined fidelity scales with its iteration
// count, the RTOS job bag scales with job count, and the search
// heuristics multiply the number of candidate schedules evaluated.
// Only the ratio between point costs matters.
//
// The search is charged to mvp and pipe points only. The vp and cal
// points of a group are the mvp point's fidelity twins: they take its
// mapping seed (Sweep.Points), the Engine hands a group's twins to one
// worker, and that worker's evaluator returns the mapping the mvp
// point searched without searching again (mapping.Evaluator.Map), so
// a vp point weighs what its execution does — refinement is closed-form
// (~130 ns, BenchmarkVPRefine/closed). BenchmarkSweepPointWarm
// measured such a twin (vp64/twin, ~4 us) at 0.5x a warm list/mvp
// point (~8.5 us) on a 2-vCPU Xeon. A spec with vp or cal points but
// no mvp under-charges: its first twin fidelity pays the search. So
// does one that lists a pipe fidelity between twins, whose search
// replaces the one kept mapping, and a shard or lease that starts
// inside a group, whose first twin searches again.
//
// The two annealers are charged separately, at their measured cost
// over list scheduling. The makespan annealer, which reschedules a
// suffix of the static schedule per move, is charged 39x: its warm
// cost over list/mvp on BenchmarkSweepPointWarm (synth16 on wireless,
// anneal/mvp ~337 us vs list/mvp ~8.7 us, medians of 30 runs on a
// 2-vCPU Xeon). Timed point by point inside the benchmark sweeps,
// anneal/mvp points average only 15-21x the list/mvp points, but the
// larger charge ranks anneal points above the rest, which tracks
// measured cost better: perfbench's dse.estcost_spearman on
// sweep_tasklevel rose from 0.77-0.78 at 13x to 0.78-0.79, and
// sweep_default's held at 0.83-0.86. The throughput annealer of the pipelined fidelity, an O(cores) load
// update per move, is charged 2.3x on BenchmarkSweepPoint
// (anneal/pipe8 ~161 us vs list/pipe8 ~71 us).
//
// An rtos point's cost is linear in its job count; BenchmarkSweepPoint
// rtos/jobs16 measured 0.76x list/mvp (medians of 10 on a 2-vCPU AMD
// EPYC, ~8.0 vs ~10.5 us; 6.3x while the scheduler ran as goroutines).
func EstCost(p Point) float64 {
	c := 1.0 + 0.25*float64(p.Plat.CoreCount())
	switch p.Fidelity {
	case "pipe":
		it := p.Iterations
		if it <= 0 {
			it = 8
		}
		c *= 1 + float64(it)/4
		switch p.Heuristic {
		case "anneal":
			c *= 2.3
		case "exhaustive":
			c *= 10
		}
	case "vp":
		c *= twinCost
	case "cal":
		// A cal point is its execution plus its share of the group's
		// probes. Each probe searches and executes its mapping once
		// more at task level (a group fit over K probes measured (1+K)x
		// an mvp evaluation on the same host), paid once per group by
		// whichever worker sees the group first; charging each member
		// half of every probe keeps the estimate near the truth for
		// the usual two-member groups without knowing the group size
		// here.
		probes := 0.0
		for _, pr := range p.CalProbes {
			probes += searchCost(pr.Heur)
		}
		c *= twinCost + 0.5*probes
	case "rtos":
		n := p.N
		if n <= 0 {
			n = 32
		}
		c *= 0.76 * float64(n) / 16
	default:
		c *= searchCost(p.Heuristic)
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

// twinCost is a vp or cal point's own evaluation, which executes the
// mapping its mvp twin searched, relative to a list/mvp point.
const twinCost = 0.5

// searchCost is a makespan mapping search of heuristic h, with its
// execution, relative to a list/mvp point.
func searchCost(h string) float64 {
	switch h {
	case "anneal":
		return 39
	case "exhaustive":
		return 10
	}
	return 1
}
