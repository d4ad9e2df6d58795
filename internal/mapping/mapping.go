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
// reject instead of copying assignments, and scores each move
// incrementally: for the throughput objective an O(cores) load
// update, for the makespan objective a reschedule of the topological
// suffix from the moved task on. The search results are byte-identical
// to the naive implementations — the regression tests in this package
// hold that equivalence. Evaluator.Map returns its assignment in
// evaluator scratch too, valid until the next Map or Bind, so a
// rebound evaluator maps point after point without allocating.
//
// Execution is the other per-point cost. Execute, ExecuteMulti and
// ExecutePipelined run tasks as state machines on the platform kernel,
// not goroutine-backed sim.Procs, dispatching exactly the events of
// the process executors the tests keep as their oracle. An Executor
// holds their scratch across runs and is itself the sim.Handler of
// every event, so a warm executor schedules no closures and allocates
// only the stats it hands back.
package mapping

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// the graph's cached adjacency view, per-task capable-core sets,
// per-(task, core) execution times at the cores' current DVFS levels,
// and the contention-free latency of every cross-PE edge as a
// core-pair plus a per-edge payload table — and keeps scratch arrays
// alive across evaluations, so scoring an assignment allocates
// nothing. Rebind (or construct) after changing
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

	// pairLat[src*nPE+dst] and edgeLat[j] split the contention-free
	// cost of a cross-PE edge — fabric plus memory estimate — into the
	// core-pair term and the payload term of aggregated Preds record j
	// (View.PredBase numbering). Their sum is exactly the sum of the
	// EstLatency calls it stands for.
	pairLat []sim.Time
	edgeLat []sim.Time

	peAvail []sim.Time
	// finish[id] is the task's finish time in the last schedule built;
	// prevFinish[q] the finish scheduleFrom overwrote at topological
	// position q, so a rejected anneal move can restore it.
	finish     []sim.Time
	prevFinish []sim.Time
	// pos[id] is the task's topological position (filled by annealMap).
	pos  []int
	load []sim.Time

	// result is the Assignment Map returns, backed by the scratch
	// below: taskPE is the list or LPT mapping, best the annealer's,
	// slots the schedule. rank, ids and weights are the heuristics'
	// working arrays.
	result  Assignment
	taskPE  []int
	best    []int
	slots   []Slot
	rank    []float64
	ids     []int
	weights []int64

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
// level changes; the per-(task, core) time table and the edge-latency
// tables are frozen at bind time.
func (e *Evaluator) Bind(g *taskgraph.Graph, plat *platform.Platform) {
	e.g, e.plat = g, plat
	e.mem = plat.Mem
	e.view = g.View()
	n := len(g.Tasks)
	nPE := len(plat.Cores)

	e.capab = grow(e.capab, n)
	need := n * nPE
	if cap(e.capBuf) < need {
		e.capBuf = make([]int, 0, need)
	}
	e.capBuf = e.capBuf[:0]
	e.durs = grow(e.durs, need)
	e.infCost = grow(e.infCost, nPE)
	e.peAvail = grow(e.peAvail, nPE)
	e.finish = grow(e.finish, n)
	e.prevFinish = grow(e.prevFinish, n)
	e.pos = grow(e.pos, n)
	e.load = grow(e.load, nPE)

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

	e.pairLat = grow(e.pairLat, nPE*nPE)
	for src := 0; src < nPE; src++ {
		for dst := 0; dst < nPE; dst++ {
			l := plat.Fabric.EstPairLatency(src, dst)
			if e.mem != nil {
				l += e.mem.EstPairLatency(src, dst)
			}
			e.pairLat[src*nPE+dst] = l
		}
	}
	e.edgeLat = grow(e.edgeLat, v.PredBase(n))
	for id := 0; id < n; id++ {
		base := v.PredBase(id)
		for k, pr := range v.Preds(id) {
			l := plat.Fabric.EstPayloadLatency(pr.Bytes)
			if e.mem != nil {
				l += e.mem.EstPayloadLatency(pr.Bytes)
			}
			e.edgeLat[base+k] = l
		}
	}
}

// grow returns s resized to n, reusing its backing array. The
// contents are unspecified; callers overwrite or clear them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Capable returns the core IDs that can run task id, respecting a
// preferred PE class when one is available. The slice is the
// evaluator's own — read-only.
func (e *Evaluator) Capable(id int) []int { return e.capab[id] }

// schedule computes the static schedule for a fixed assignment:
// topological order, communication charged at contention-free fabric
// and memory estimates, one task at a time per PE. It runs entirely in
// reused scratch: with wantSlots true it also returns the slot list,
// which is evaluator scratch valid until the next schedule.
func (e *Evaluator) schedule(taskPE []int, wantSlots bool) (sim.Time, []Slot, error) {
	return e.scheduleFrom(taskPE, 0, wantSlots)
}

// scheduleFrom is schedule resumed at topological position from. A
// task's schedule depends only on the tasks before it in topological
// order, so when e.finish holds a schedule whose assignment agrees
// with taskPE on every task before from — the annealer's committed
// state after moving the task at from — those finish times are still
// exact: one scan of them rebuilds each PE's availability (the finish
// of its last task so far) and the running makespan, and the loop
// reschedules only positions from on. It saves each finish time it
// overwrites in e.prevFinish for restoreFrom. Slots, when wanted,
// cover the rescheduled positions.
func (e *Evaluator) scheduleFrom(taskPE []int, from int, wantSlots bool) (sim.Time, []Slot, error) {
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
	finish, prev := e.finish, e.prevFinish
	durs, pairLat, edgeLat := e.durs, e.pairLat, e.edgeLat
	var makespan sim.Time
	for _, id := range order[:from] {
		end := finish[id]
		peAvail[taskPE[id]] = end
		if end > makespan {
			makespan = end
		}
	}
	var slots []Slot
	if wantSlots {
		if e.slots == nil || cap(e.slots) < len(order)-from {
			e.slots = make([]Slot, 0, len(order))
		}
		slots = e.slots[:0]
	}
	for q := from; q < len(order); q++ {
		id := order[q]
		pe := taskPE[id]
		dur := durs[id*nPE+pe]
		if dur < 0 {
			e.Obs.TasksScheduled.Add(int64(q - from))
			t := e.g.Tasks[id]
			return 0, nil, fmt.Errorf("mapping: task %q cannot run on core %d (%v)", t.Name, pe, e.plat.Core(pe).Class)
		}
		ready := sim.Time(0)
		base := v.PredBase(id)
		for k, pr := range v.Preds(id) {
			arr := finish[pr.Task]
			if src := taskPE[pr.Task]; src != pe {
				arr += pairLat[src*nPE+pe] + edgeLat[base+k]
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
		prev[q] = finish[id]
		finish[id] = end
		if wantSlots {
			slots = append(slots, Slot{Task: id, PE: pe, Start: start, Finish: end})
		}
		if end > makespan {
			makespan = end
		}
	}
	e.Obs.TasksScheduled.Add(int64(len(order) - from))
	return makespan, slots, nil
}

// topoPositions fills and returns e.pos: each task's position in the
// view's topological order.
func (e *Evaluator) topoPositions() []int {
	order, _ := e.view.TopoOrder()
	for q, id := range order {
		e.pos[id] = q
	}
	return e.pos
}

// restoreFrom puts back the finish times the last successful
// scheduleFrom(…, from, …) overwrote, returning e.finish to the
// schedule it resumed from.
func (e *Evaluator) restoreFrom(from int) {
	order, _ := e.view.TopoOrder()
	for q := from; q < len(order); q++ {
		e.finish[order[q]] = e.prevFinish[q]
	}
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
// a fresh Evaluator, and returns a fresh assignment the caller owns.
// Callers mapping many candidates against reusable scratch should
// construct an Evaluator once and call its Map method.
func Map(g *taskgraph.Graph, plat *platform.Platform, opt Options) (*Assignment, error) {
	// Validate before building the evaluator: its adjacency view
	// indexes edge endpoints unchecked, and a malformed graph (edges
	// edited outside AddTask/Connect) must surface as the Validate
	// error, not a panic.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	a, err := NewEvaluator(g, plat).Map(opt)
	if err != nil {
		return nil, err
	}
	// The evaluator is dropped here, so its scratch — which backs
	// a.TaskPE and a.Schedule — is the caller's alone; copying the
	// header lets the rest of the evaluator be collected.
	out := *a
	return &out, nil
}

// Map assigns the bound graph's tasks onto the bound platform with
// the selected heuristic. The Assignment, its TaskPE and its Schedule
// are evaluator scratch, valid until the next Map or Bind: a caller
// that keeps a mapping past that copies it (or uses the package-level
// Map, whose result it owns).
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
	e.result = Assignment{Graph: g, Platform: plat, TaskPE: taskPE, Schedule: slots, Makespan: mk}
	return &e.result, nil
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
	// Every task's rank is written, successors first, before any read.
	rank := grow(e.rank, n)
	e.rank = rank
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
	ids := grow(e.ids, n)
	e.ids = ids
	for i := range ids {
		ids[i] = i
	}
	slices.SortStableFunc(ids, func(a, b int) int {
		if c := cmp.Compare(rank[b], rank[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	taskPE := grow(e.taskPE, n)
	e.taskPE = taskPE
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
		base := v.PredBase(id)
		for _, pe := range e.capab[id] {
			ready := sim.Time(0)
			for k, pr := range v.Preds(id) {
				src := taskPE[pr.Task]
				if src < 0 {
					continue // predecessor not placed yet (rank order anomaly)
				}
				arr := finish[pr.Task]
				if src != pe {
					arr += e.pairLat[src*nPE+pe] + e.edgeLat[base+k]
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
	ids, weights := grow(e.ids, n), grow(e.weights, n)
	e.ids, e.weights = ids, weights
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
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	load := e.load
	for i := range load {
		load[i] = 0
	}
	taskPE := grow(e.taskPE, n)
	e.taskPE = taskPE
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
// current assignment in place and revert on reject. Every move cost is
// computed incrementally: a move that picks the task's current core
// keeps the current cost (and, at dE = 0, is accepted without drawing
// from the RNG); the throughput objective updates two per-core loads;
// the makespan objective reschedules only from the moved task's
// topological position on (scheduleFrom), restoring the committed
// finish times on reject. All produce the exact cost values of a full
// recomputation, so the accept/reject trajectory — and therefore the
// returned assignment — is byte-identical to the copying
// implementation.
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
	best := append(e.best[:0], cur...)
	e.best = best
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
	// Makespan: e.finish now holds cur's schedule (objectiveCost
	// above); moves reschedule from the moved task's position.
	pos := e.topoPositions()
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := e.capab[tIdx]
		oldPE := cur[tIdx]
		newPE := cands[rng.Intn(len(cands))]
		// A move onto the task's current core keeps curCost.
		nc := curCost
		if newPE != oldPE {
			cur[tIdx] = newPE
			if opt.Objective == Throughput {
				load[oldPE] -= dur(tIdx, oldPE)
				load[newPE] += dur(tIdx, newPE)
				nc = 0
				for _, l := range load {
					if l > nc {
						nc = l
					}
				}
			} else {
				mk, _, err := e.scheduleFrom(cur, pos[tIdx], false)
				if err != nil {
					mk = sim.Forever
				}
				nc = mk
			}
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
			} else {
				e.restoreFrom(pos[tIdx])
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
