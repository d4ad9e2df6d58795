// Package mapping assigns task graphs to MPSoC processing elements
// and schedules them — the back half of the MAPS flow in the paper's
// section IV: "Using optimization algorithms, the task graphs are
// mapped to the target architecture, taking into account real-time
// requirements and preferred PE classes."
//
// Three mappers are provided: HEFT-style list scheduling, simulated
// annealing refinement, and branch-and-bound exhaustive search for
// small instances. Execute runs a mapped graph on the event-driven
// platform model with real fabric contention — the fast high-level
// simulation that plays the role of the MAPS Virtual Platform (MVP)
// in experiments.
//
// # Hot-path design
//
// Candidate evaluation is the inner loop of design-space exploration
// (thousands of scored assignments per anneal, one per leaf of the
// exhaustive search), so it is engineered as a zero-allocation hot
// path: an Evaluator binds one (graph, platform) pair, precomputes
// capable-core sets and per-(task, core) execution times from the
// graph's cached taskgraph.View, and scores assignments into reused
// scratch. The annealer mutates one task per move and reverts on
// reject instead of copying assignments; for the throughput objective
// the move cost is an O(cores) incremental load update. The search
// results are byte-identical to the naive implementations — the
// regression tests in this package hold that equivalence.
//
// Execution is the other per-point cost. Execute, ExecuteMulti and
// ExecutePipelined run tasks as kernel callbacks, not goroutine-backed
// sim.Procs, dispatching exactly the events of the process executors
// the tests keep as their oracle.
package mapping

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpsockit/internal/mem"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/xrand"
)

// Heuristic selects the mapping algorithm.
type Heuristic int

// Mapping heuristics.
const (
	List Heuristic = iota
	Anneal
	Exhaustive
)

// String returns the heuristic's flag/spec name.
func (h Heuristic) String() string {
	switch h {
	case List:
		return "list"
	case Anneal:
		return "anneal"
	default:
		return "exhaustive"
	}
}

// ParseHeuristic converts a heuristic name ("list", "anneal",
// "exhaustive") to a Heuristic.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "list":
		return List, nil
	case "anneal":
		return Anneal, nil
	case "exhaustive":
		return Exhaustive, nil
	}
	return 0, fmt.Errorf("mapping: unknown heuristic %q", s)
}

// Objective selects what Map optimizes: one-shot makespan (latency)
// or pipeline throughput (bottleneck stage time) — MAPS uses the
// latter for streaming multimedia codecs.
type Objective int

// Mapping objectives.
const (
	Makespan Objective = iota
	Throughput
)

// Options configures Map.
type Options struct {
	Heuristic  Heuristic
	Objective  Objective
	Seed       uint64
	Iterations int // annealing steps (default 2000)
}

// Slot is one scheduled task occurrence.
type Slot struct {
	Task, PE      int
	Start, Finish sim.Time
}

// Assignment is a mapping plus its static schedule.
type Assignment struct {
	Graph    *taskgraph.Graph
	Platform *platform.Platform
	TaskPE   []int
	Schedule []Slot
	Makespan sim.Time
}

// Evaluator is a reusable candidate-scoring context for one (graph,
// platform) pair. It precomputes what every cost evaluation needs —
// the graph's cached adjacency view, per-task capable-core sets, and
// per-(task, core) execution times at the cores' current DVFS levels
// — and keeps scratch arrays alive across evaluations, so scoring an
// assignment allocates nothing. Rebind (or construct) after changing
// the graph, the platform, or a core's DVFS level; an Evaluator is
// not safe for concurrent use.
type Evaluator struct {
	g    *taskgraph.Graph
	plat *platform.Platform
	view *taskgraph.View
	// mem is the platform's memory contention model (nil for ideal),
	// cached at bind time so the scoring loop skips the field chase.
	mem mem.Model

	capab  [][]int // per task: capable core IDs (preferred-PE filtered)
	capBuf []int   // backing array for capab

	// durs[id*nPE+pe] is the task's execution time on core pe at its
	// bound DVFS level, or -1 when the task cannot run there.
	durs []sim.Time
	// infCost[pe] is Cycles(1<<50) — the legacy "impossible" charge the
	// throughput objective adds for an infeasible placement, kept
	// bit-identical to the pre-Evaluator implementation.
	infCost []sim.Time

	peAvail []sim.Time
	finish  []sim.Time
	load    []sim.Time

	// Obs is the optional search-instrumentation handle. The zero
	// value is inert; attaching counters never changes which
	// assignment a heuristic returns.
	Obs SearchObs
}

// NewEvaluator returns an evaluator bound to (g, plat). The graph's
// edges must reference tasks in range (anything built through
// AddTask/Connect is); use Map, which validates first, for untrusted
// graphs.
func NewEvaluator(g *taskgraph.Graph, plat *platform.Platform) *Evaluator {
	e := &Evaluator{}
	e.Bind(g, plat)
	return e
}

// Bind repoints the evaluator at (g, plat), reusing its scratch
// storage. Call it again after structural graph changes or core DVFS
// level changes; the per-(task, core) time table is frozen at bind
// time.
func (e *Evaluator) Bind(g *taskgraph.Graph, plat *platform.Platform) {
	e.g, e.plat = g, plat
	e.mem = plat.Mem
	e.view = g.View()
	n := len(g.Tasks)
	nPE := len(plat.Cores)

	if cap(e.capab) < n {
		e.capab = make([][]int, n)
	}
	e.capab = e.capab[:n]
	need := n * nPE
	if cap(e.capBuf) < need {
		e.capBuf = make([]int, 0, need)
	}
	e.capBuf = e.capBuf[:0]
	if cap(e.durs) < need {
		e.durs = make([]sim.Time, need)
	}
	e.durs = e.durs[:need]
	e.infCost = growTime(e.infCost, nPE)
	e.peAvail = growTime(e.peAvail, nPE)
	e.finish = growTime(e.finish, n)
	e.load = growTime(e.load, nPE)

	for pe, c := range plat.Cores {
		e.infCost[pe] = c.Cycles(1 << 50)
	}
	v := e.view
	for id, t := range g.Tasks {
		usePref := false
		if t.HasPref {
			for _, c := range plat.Cores {
				if c.Class == t.PreferredPE && v.CanRunOn(id, c.Class) {
					usePref = true
					break
				}
			}
		}
		start := len(e.capBuf)
		for _, c := range plat.Cores {
			if !v.CanRunOn(id, c.Class) {
				e.durs[id*nPE+c.ID] = -1
				continue
			}
			e.durs[id*nPE+c.ID] = c.Cycles(v.CyclesOn(id, c.Class))
			if !usePref || c.Class == t.PreferredPE {
				e.capBuf = append(e.capBuf, c.ID)
			}
		}
		e.capab[id] = e.capBuf[start:len(e.capBuf):len(e.capBuf)]
	}
}

// growTime returns s resized to n, reusing its backing array.
func growTime(s []sim.Time, n int) []sim.Time {
	if cap(s) < n {
		return make([]sim.Time, n)
	}
	return s[:n]
}

// Capable returns the core IDs that can run task id, respecting a
// preferred PE class when one is available. The slice is the
// evaluator's own — read-only.
func (e *Evaluator) Capable(id int) []int { return e.capab[id] }

// schedule computes the static schedule for a fixed assignment:
// topological order, communication charged at contention-free fabric
// estimates, one task at a time per PE. With wantSlots false it runs
// entirely in reused scratch — zero allocations — and returns only
// the makespan; with wantSlots true it allocates a fresh slot list
// for the caller to keep.
func (e *Evaluator) schedule(taskPE []int, wantSlots bool) (sim.Time, []Slot, error) {
	e.Obs.Schedules.Inc()
	v := e.view
	order, err := v.TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	nPE := len(e.plat.Cores)
	peAvail := e.peAvail
	for i := range peAvail {
		peAvail[i] = 0
	}
	finish := e.finish
	var slots []Slot
	if wantSlots {
		slots = make([]Slot, 0, len(order))
	}
	var makespan sim.Time
	for _, id := range order {
		pe := taskPE[id]
		dur := e.durs[id*nPE+pe]
		if dur < 0 {
			t := e.g.Tasks[id]
			return 0, nil, fmt.Errorf("mapping: task %q cannot run on core %d (%v)", t.Name, pe, e.plat.Core(pe).Class)
		}
		ready := sim.Time(0)
		for _, pr := range v.Preds(id) {
			arr := finish[pr.Task]
			if taskPE[pr.Task] != pe {
				arr += e.plat.Fabric.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
				if e.mem != nil {
					arr += e.mem.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
				}
			}
			if arr > ready {
				ready = arr
			}
		}
		start := ready
		if peAvail[pe] > start {
			start = peAvail[pe]
		}
		end := start + dur
		peAvail[pe] = end
		finish[id] = end
		if wantSlots {
			slots = append(slots, Slot{Task: id, PE: pe, Start: start, Finish: end})
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan, slots, nil
}

// evaluate is the legacy entry point kept for the equivalence tests:
// score one assignment with a throwaway evaluator.
func evaluate(g *taskgraph.Graph, plat *platform.Platform, taskPE []int) (sim.Time, []Slot, error) {
	return NewEvaluator(g, plat).schedule(taskPE, true)
}

// objectiveCost scores an assignment under the selected objective:
// static-schedule makespan, or the pipeline's steady-state period
// (the most-loaded core) for throughput. Zero allocations.
func (e *Evaluator) objectiveCost(objective Objective, assign []int) sim.Time {
	e.Obs.CostEvals.Inc()
	if objective == Throughput {
		nPE := len(e.plat.Cores)
		load := e.load
		for i := range load {
			load[i] = 0
		}
		var worst sim.Time
		for id, pe := range assign {
			d := e.durs[id*nPE+pe]
			if d < 0 {
				d = e.infCost[pe]
			}
			load[pe] += d
			if load[pe] > worst {
				worst = load[pe]
			}
		}
		return worst
	}
	mk, _, err := e.schedule(assign, false)
	if err != nil {
		return sim.Forever
	}
	return mk
}

// Map assigns g's tasks onto plat with the selected heuristic, using
// a fresh Evaluator. Callers mapping many candidates against reusable
// scratch should construct an Evaluator once and call its Map method.
func Map(g *taskgraph.Graph, plat *platform.Platform, opt Options) (*Assignment, error) {
	// Validate before building the evaluator: its adjacency view
	// indexes edge endpoints unchecked, and a malformed graph (edges
	// edited outside AddTask/Connect) must surface as the Validate
	// error, not a panic.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return NewEvaluator(g, plat).Map(opt)
}

// Map assigns the bound graph's tasks onto the bound platform with
// the selected heuristic.
func (e *Evaluator) Map(opt Options) (*Assignment, error) {
	g, plat := e.g, e.plat
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(plat.Cores) == 0 {
		return nil, fmt.Errorf("mapping: platform has no cores")
	}
	for id, t := range g.Tasks {
		if len(e.capab[id]) == 0 {
			return nil, fmt.Errorf("mapping: no core can run task %q", t.Name)
		}
	}
	var taskPE []int
	var err error
	switch opt.Heuristic {
	case List:
		if opt.Objective == Throughput {
			taskPE, err = e.throughputMap()
		} else {
			taskPE, err = e.listMap()
		}
	case Anneal:
		taskPE, err = e.annealMap(opt)
	case Exhaustive:
		taskPE, err = e.exhaustiveMap(opt.Objective)
	default:
		return nil, fmt.Errorf("mapping: unknown heuristic %d", opt.Heuristic)
	}
	if err != nil {
		return nil, err
	}
	mk, slots, err := e.schedule(taskPE, true)
	if err != nil {
		return nil, err
	}
	return &Assignment{Graph: g, Platform: plat, TaskPE: taskPE, Schedule: slots, Makespan: mk}, nil
}

// listMap is HEFT-flavoured: rank tasks by upward rank (mean compute
// plus mean communication to the exit), then greedily place each on
// the core minimizing its earliest finish time.
func (e *Evaluator) listMap() ([]int, error) {
	g, plat, v := e.g, e.plat, e.view
	n := len(g.Tasks)
	meanCycles := func(id int) float64 {
		var sum float64
		var cnt int
		for _, c := range plat.Cores {
			if v.CanRunOn(id, c.Class) {
				sum += float64(v.CyclesOn(id, c.Class)) / float64(c.Hz()) * 1e12
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	rank := make([]float64, n)
	order, _ := v.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, s := range v.Succs(id) {
			comm := float64(plat.Fabric.EstLatency(0, len(plat.Cores)-1, s.Bytes))
			if e.mem != nil {
				comm += float64(e.mem.EstLatency(0, len(plat.Cores)-1, s.Bytes))
			}
			if r := rank[s.Task] + comm; r > best {
				best = r
			}
		}
		rank[id] = meanCycles(id) + best
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if rank[ids[a]] != rank[ids[b]] {
			return rank[ids[a]] > rank[ids[b]]
		}
		return ids[a] < ids[b]
	})

	taskPE := make([]int, n)
	for i := range taskPE {
		taskPE[i] = -1
	}
	nPE := len(plat.Cores)
	peAvail := e.peAvail
	for i := range peAvail {
		peAvail[i] = 0
	}
	finish := e.finish
	for _, id := range ids {
		bestPE, bestEFT := -1, sim.Forever
		for _, pe := range e.capab[id] {
			ready := sim.Time(0)
			for _, pr := range v.Preds(id) {
				if taskPE[pr.Task] < 0 {
					continue // predecessor not placed yet (rank order anomaly)
				}
				arr := finish[pr.Task]
				if taskPE[pr.Task] != pe {
					arr += plat.Fabric.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
					if e.mem != nil {
						arr += e.mem.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
					}
				}
				if arr > ready {
					ready = arr
				}
			}
			start := ready
			if peAvail[pe] > start {
				start = peAvail[pe]
			}
			eft := start + e.durs[id*nPE+pe]
			if eft < bestEFT {
				bestEFT = eft
				bestPE = pe
			}
		}
		taskPE[id] = bestPE
		peAvail[bestPE] = bestEFT
		finish[id] = bestEFT
	}
	return taskPE, nil
}

// throughputMap balances stage load across PEs (greedy LPT on
// per-core execution time): the pipeline's steady-state period is the
// most-loaded core, so minimizing the maximum load maximizes
// throughput.
func (e *Evaluator) throughputMap() ([]int, error) {
	g, plat := e.g, e.plat
	n := len(g.Tasks)
	nPE := len(plat.Cores)
	ids := make([]int, n)
	weights := make([]int64, n)
	for i := range ids {
		ids[i] = i
		// Fastest capable core's execution time. An explicit found
		// flag, not a zero sentinel: a 0-cycle task must not fall
		// through to a slower core's time.
		var w int64
		found := false
		for _, c := range plat.Cores {
			if d := e.durs[i*nPE+c.ID]; d >= 0 {
				if t := int64(d); !found || t < w {
					w = t
					found = true
				}
			}
		}
		weights[i] = w
	}
	sort.SliceStable(ids, func(a, b int) bool { return weights[ids[a]] > weights[ids[b]] })
	load := e.load
	for i := range load {
		load[i] = 0
	}
	taskPE := make([]int, n)
	for _, id := range ids {
		bestPE := -1
		var bestLoad sim.Time = sim.Forever
		for _, pe := range e.capab[id] {
			l := load[pe] + e.durs[id*nPE+pe]
			if l < bestLoad {
				bestLoad = l
				bestPE = pe
			}
		}
		taskPE[id] = bestPE
		load[bestPE] = bestLoad
	}
	return taskPE, nil
}

// annealMap refines the list (or, for throughput, LPT) mapping with
// simulated annealing over single-task moves, optimizing the selected
// objective; deterministic under Options.Seed. Moves mutate the
// current assignment in place and revert on reject; the throughput
// objective's move cost is an incremental per-core load update, the
// makespan objective recomputes the static schedule in scratch. Both
// produce the exact cost values of a full recomputation, so the
// accept/reject trajectory — and therefore the returned assignment —
// is byte-identical to the copying implementation.
func (e *Evaluator) annealMap(opt Options) ([]int, error) {
	g := e.g
	nPE := len(e.plat.Cores)
	var cur []int
	var err error
	if opt.Objective == Throughput {
		cur, err = e.throughputMap()
	} else {
		cur, err = e.listMap()
	}
	if err != nil {
		return nil, err
	}
	iters := opt.Iterations
	if iters <= 0 {
		iters = 2000
	}
	rng := xrand.New(opt.Seed + 1)
	curCost := e.objectiveCost(opt.Objective, cur)
	best := append([]int{}, cur...)
	bestCost := curCost
	temp := float64(curCost)
	// Throughput: e.load now holds cur's per-core loads (filled by
	// objectiveCost above); maintain it incrementally across moves.
	load := e.load
	dur := func(id, pe int) sim.Time {
		if d := e.durs[id*nPE+pe]; d >= 0 {
			return d
		}
		return e.infCost[pe]
	}
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := e.capab[tIdx]
		oldPE := cur[tIdx]
		newPE := cands[rng.Intn(len(cands))]
		cur[tIdx] = newPE
		var nc sim.Time
		if opt.Objective == Throughput {
			load[oldPE] -= dur(tIdx, oldPE)
			load[newPE] += dur(tIdx, newPE)
			for _, l := range load {
				if l > nc {
					nc = l
				}
			}
		} else {
			mk, _, err := e.schedule(cur, false)
			if err != nil {
				mk = sim.Forever
			}
			nc = mk
		}
		e.Obs.AnnealMoves.Inc()
		dE := float64(nc - curCost)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1)) {
			e.Obs.AnnealAccepts.Inc()
			curCost = nc
			if curCost < bestCost {
				copy(best, cur)
				bestCost = curCost
			}
		} else {
			e.Obs.AnnealRejects.Inc()
			cur[tIdx] = oldPE
			if opt.Objective == Throughput {
				load[newPE] -= dur(tIdx, newPE)
				load[oldPE] += dur(tIdx, oldPE)
			}
		}
		temp *= 0.995
	}
	return best, nil
}

// exhaustiveMap enumerates all feasible assignments under the
// selected objective with branch-and-bound: a prefix is cut when an
// admissible lower bound — the larger of the most-loaded core so far
// and the remaining work spread perfectly over all cores — already
// meets the incumbent. Bounds never cut a strictly better leaf and
// enumeration order is unchanged, so the returned assignment is the
// plain enumeration's first-found argmin, byte for byte. Guarded to
// small instances (the paper's exploration loop for design studies).
func (e *Evaluator) exhaustiveMap(objective Objective) ([]int, error) {
	g := e.g
	n := len(g.Tasks)
	nPE := len(e.plat.Cores)
	space := 1
	for id := range g.Tasks {
		space *= len(e.capab[id])
		if space > 500_000 {
			return nil, fmt.Errorf("mapping: exhaustive search space too large (>500k); use list or anneal")
		}
	}
	// minDur[i] is task i's fastest capable-core time; remMin[i] the
	// total over tasks i..n-1 — the admissible remaining-work term.
	minDur := make([]sim.Time, n)
	for id := range g.Tasks {
		m := sim.Forever
		for _, pe := range e.capab[id] {
			if d := e.durs[id*nPE+pe]; d < m {
				m = d
			}
		}
		minDur[id] = m
	}
	remMin := make([]sim.Time, n+1)
	for id := n - 1; id >= 0; id-- {
		remMin[id] = remMin[id+1] + minDur[id]
	}
	assign := make([]int, n)
	best := make([]int, n)
	bestCost := sim.Forever
	load := make([]sim.Time, nPE)
	var loadSum sim.Time
	var rec func(i int, maxLoad sim.Time)
	rec = func(i int, maxLoad sim.Time) {
		if i == n {
			c := e.objectiveCost(objective, assign)
			if c < bestCost {
				bestCost = c
				copy(best, assign)
			}
			return
		}
		if bestCost < sim.Forever {
			lb := maxLoad
			if spread := (loadSum + remMin[i] + sim.Time(nPE) - 1) / sim.Time(nPE); spread > lb {
				lb = spread
			}
			if lb >= bestCost {
				return
			}
		}
		for _, pe := range e.capab[i] {
			assign[i] = pe
			d := e.durs[i*nPE+pe]
			load[pe] += d
			loadSum += d
			ml := maxLoad
			if load[pe] > ml {
				ml = load[pe]
			}
			rec(i+1, ml)
			load[pe] -= d
			loadSum -= d
		}
	}
	rec(0, 0)
	if bestCost == sim.Forever {
		return nil, fmt.Errorf("mapping: no feasible assignment")
	}
	return best, nil
}

// Validate checks schedule sanity: no PE runs two tasks at once and
// every dependence finishes before its consumer starts.
func (a *Assignment) Validate() error {
	byPE := map[int][]Slot{}
	byTask := make([]Slot, len(a.Graph.Tasks))
	for _, s := range a.Schedule {
		byPE[s.PE] = append(byPE[s.PE], s)
		byTask[s.Task] = s
	}
	for pe, slots := range byPE {
		sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].Finish {
				return fmt.Errorf("mapping: PE %d overlaps tasks %d and %d", pe, slots[i-1].Task, slots[i].Task)
			}
		}
	}
	for _, e := range a.Graph.Edges {
		if byTask[e.To].Start < byTask[e.From].Finish {
			return fmt.Errorf("mapping: task %d starts before producer %d finishes", e.To, e.From)
		}
	}
	return nil
}

// FeasibleWithin reports whether the schedule fits a period/deadline.
func (a *Assignment) FeasibleWithin(deadline sim.Time) bool {
	return a.Makespan <= deadline
}

// Gantt renders the schedule as text for reports.
func (a *Assignment) Gantt() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule on %s (makespan %v):\n", a.Platform.Name, a.Makespan)
	byPE := map[int][]Slot{}
	for _, s := range a.Schedule {
		byPE[s.PE] = append(byPE[s.PE], s)
	}
	var pes []int
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		slots := byPE[pe]
		sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
		fmt.Fprintf(&b, "  %-8s:", a.Platform.Core(pe).Name)
		for _, s := range slots {
			fmt.Fprintf(&b, " [%s %v..%v]", a.Graph.Tasks[s.Task].Name, s.Start, s.Finish)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ExecStats is the measurement record a simulated execution returns:
// the makespan, per-PE busy time (compute only, excluding contention
// stalls), and the fabric traffic generated during the run. It feeds
// dse.Metrics — utilization, energy proxies and NoC pressure all
// derive from it.
type ExecStats struct {
	Makespan sim.Time
	// PEBusy[pe] is the time core pe spent computing tasks.
	PEBusy []sim.Time
	// Fabric is the traffic delta attributable to this run.
	Fabric platform.FabricStats
	// Mem is the memory-subsystem service delta attributable to this
	// run. Zero when the platform has no memory model attached.
	Mem platform.MemStats
}

// BusyTotal sums compute time over all PEs.
func (s ExecStats) BusyTotal() sim.Time {
	var total sim.Time
	for _, b := range s.PEBusy {
		total += b
	}
	return total
}

// Utilization returns per-PE busy fraction of the makespan.
func (s ExecStats) Utilization() []float64 {
	out := make([]float64, len(s.PEBusy))
	if s.Makespan <= 0 {
		return out
	}
	for i, b := range s.PEBusy {
		out[i] = float64(b) / float64(s.Makespan)
	}
	return out
}

// transferContended moves one cross-PE payload: the fabric delivers
// it, then — when the platform has a memory contention model — the
// payload queues for memory service before done fires. With no model
// (nil Mem) the call is exactly Fabric.Transfer: same arguments, same
// event stream, byte-identical timing to the pre-model simulator.
func transferContended(plat *platform.Platform, src, dst, bytes int, done func()) {
	m := plat.Mem
	if m == nil {
		plat.Fabric.Transfer(src, dst, bytes, done)
		return
	}
	k := plat.Kernel
	plat.Fabric.Transfer(src, dst, bytes, func() {
		if d := m.Service(k.Now(), src, dst, bytes); d > 0 {
			k.Schedule(d, done)
		} else {
			done()
		}
	})
}

// peArbiter is the callback executors' per-run PE arbitration: a
// capacity-1 sim.Resource per core without the processes. A task that
// finds its core held queues its resume callback; release schedules
// every queued callback at delay 0 in queue order, as Resource.Release
// wakes its waiters, and each woken task re-contends when dispatched.
type peArbiter struct {
	k    *sim.Kernel
	held []bool
	wait [][]func()
}

func newPEArbiter(k *sim.Kernel, cores int) *peArbiter {
	return &peArbiter{k: k, held: make([]bool, cores), wait: make([][]func(), cores)}
}

// acquire takes core pe, or queues resume and reports false.
func (p *peArbiter) acquire(pe int, resume func()) bool {
	if p.held[pe] {
		p.wait[pe] = append(p.wait[pe], resume)
		return false
	}
	p.held[pe] = true
	return true
}

func (p *peArbiter) release(pe int) {
	p.held[pe] = false
	for _, resume := range p.wait[pe] {
		p.k.Schedule(0, resume)
	}
	p.wait[pe] = p.wait[pe][:0]
}

// runKernel drains the executors' kernel. It is a variable so tests
// can substitute a stepping loop that records every dispatch time.
var runKernel = (*sim.Kernel).Run

// Execute runs the assignment on the event-driven platform model with
// genuine fabric contention (transfers share links) — the high-level
// "virtual platform" simulation of section IV. It uses the platform's
// kernel, which must be otherwise idle, and returns the measured
// makespan plus per-PE busy time and the fabric traffic of the run.
// It shares its implementation with ExecuteMulti (executeSpans), so
// the two can never diverge.
func Execute(a *Assignment) (ExecStats, error) {
	stats, _, err := executeSpans(a, nil)
	return stats, err
}

// ExecutePipelined runs the mapped graph as a pipeline over
// `iterations` successive data sets (frames, blocks): every task
// fires once per iteration, consuming its predecessors' tokens for
// the same iteration through depth-bounded FIFO channels. This is how
// MAPS-mapped multimedia codecs actually earn their speedup — stage
// parallelism across consecutive frames — and the measurement behind
// the section IV "promising speedup results".
//
// Every task is a kernel-callback state machine (pc, edge, iteration)
// that returns to the kernel wherever a process would park — token
// get, PE acquire, compute delay, transfer done, token put — and
// resumes through one scheduled callback. A task woken on a FIFO or
// its PE re-checks like sim.Queue and sim.Resource waiters do, and a
// put blocked after a cross-PE transfer does not send again.
func ExecutePipelined(a *Assignment, iterations int) (ExecStats, error) {
	if iterations <= 0 {
		return ExecStats{}, fmt.Errorf("mapping: iterations must be positive")
	}
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	v := g.View()
	// Edge FIFOs hold depth tokens. Token values are never read, so a
	// FIFO is its occupancy plus the one task that can be parked on
	// each end: its consumer while empty, its producer while full.
	const depth = 2
	tokens := make([]int, len(g.Edges))
	getter := make([]func(), len(g.Edges))
	putter := make([]func(), len(g.Edges))
	wake := func(w *func()) {
		if *w != nil {
			k.Schedule(0, *w)
			*w = nil
		}
	}
	pes := newPEArbiter(k, len(a.Platform.Cores))
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	var makespan sim.Time
	finished := 0
	const (
		pcGet     = iota // consuming input tokens from in[next]
		pcAcquire        // waiting for the PE
		pcCompute        // compute delay running
		pcPut            // producing output tokens to out[next]
	)
	type pipeTask struct {
		pc, next, it int
		dur          sim.Time
		sent         bool // out[next]'s cross-PE transfer has completed
		step, signal func()
	}
	tasks := make([]pipeTask, len(g.Tasks))
	for id := range tasks {
		t := &tasks[id]
		in, out := v.InEdges(id), v.OutEdges(id)
		pe := a.TaskPE[id]
		core := a.Platform.Core(pe)
		cycles := g.Tasks[id].CyclesOn(core.Class)
		t.step = func() {
			for {
				switch t.pc {
				case pcGet:
					for ; t.next < len(in); t.next++ {
						e := in[t.next].Edge
						if tokens[e] == 0 {
							getter[e] = t.step
							return
						}
						tokens[e]--
						wake(&putter[e])
					}
					t.pc = pcAcquire
				case pcAcquire:
					if !pes.acquire(pe, t.step) {
						return
					}
					t.dur = core.Cycles(cycles)
					t.pc = pcCompute
					k.Schedule(t.dur, t.step)
					return
				case pcCompute:
					pes.release(pe)
					busy[pe] += t.dur
					t.pc, t.next = pcPut, 0
				case pcPut:
					for ; t.next < len(out); t.next++ {
						oe := out[t.next]
						if dst := a.TaskPE[oe.Task]; dst != pe && !t.sent {
							transferContended(a.Platform, pe, dst, oe.Bytes, t.signal)
							return
						}
						if tokens[oe.Edge] >= depth {
							putter[oe.Edge] = t.step
							return
						}
						t.sent = false
						tokens[oe.Edge]++
						wake(&getter[oe.Edge])
					}
					if k.Now() > makespan {
						makespan = k.Now()
					}
					t.it++
					if t.it == iterations {
						finished++
						return
					}
					t.pc, t.next = pcGet, 0
				}
			}
		}
		// Transfer done wakes the task through one more zero-delay
		// event, as a sim.Signal broadcast does.
		t.signal = func() {
			t.sent = true
			k.Schedule(0, t.step)
		}
	}
	for id := range tasks {
		k.Schedule(0, tasks[id].step)
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
