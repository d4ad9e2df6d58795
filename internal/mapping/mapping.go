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
// suffix from the moved task on, by the one position-indexed schedule
// kernel that builds every static schedule. The search results are byte-identical
// to the naive implementations — the regression tests in this package
// hold that equivalence. Evaluator.Map returns its assignment in
// evaluator scratch too, valid until the next Map or Bind, so a
// rebound evaluator maps point after point without allocating. A
// search reads nothing but the graph, the bound tables, the cores'
// classes and clocks, and its options, so a Bind that reproduces all
// of them keeps Map's result, and Map with the same options returns
// it unsearched: the fidelity twins of a design point share one
// search.
//
// A search also stops when it can prove its answer optimal. The bound
// tables give an admissible lower bound on any capable assignment's
// cost (lowerBound): the fastest-time critical path with free
// communication, or for throughput the longest task, and the fastest
// total work spread over all cores. An anneal whose list or LPT start
// meets it returns the start without a move, and exhaustive search
// ends at the first leaf that meets it. Both searches keep a mapping
// only for a strictly lower cost, so neither changes its result.
//
// A makespan move also stops once its rejection is certain. It reads
// its acceptance draw u before rescheduling, from a copy of the RNG;
// u bounds the largest cost the move can have and still be accepted
// (costLimit), and a task's finish plus the fastest-time path after it
// (tails) bounds the move's makespan from below, so the suffix stops
// when that bound passes the limit. The stopped move is rejected,
// having drawn u as a completed one would, and restores only the
// positions it rescheduled. The acceptance test u < exp(-x) itself
// calls math.Exp only inside a narrow band around -ln u that u's
// exponent and mantissa give (expBand): outside it the answer is
// certain. Trajectory, accepted moves and result are the unbounded
// annealer's; only the tasks scheduled fall.
//
// Execution is the other per-point cost. Execute, ExecuteMulti and
// ExecutePipelined run tasks as state machines on the platform kernel,
// not goroutine-backed sim.Procs, dispatching exactly the events of
// the process executors the tests keep as their oracle. An Executor
// holds their scratch across runs and is itself the sim.Handler of
// every event, and the stats it hands back are that scratch, so a
// warm executor schedules no closures and allocates nothing.
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
// nothing. Static schedules run on one kernel indexed by topological
// position (suffix). Rebind (or construct) after changing
// the graph, the platform, or a core's DVFS level; an Evaluator is
// not safe for concurrent use.
type Evaluator struct {
	g    *taskgraph.Graph
	plat *platform.Platform
	view *taskgraph.View
	// mem is the platform's memory contention model (nil for ideal),
	// cached at bind time so the scoring loop skips the field chase.
	mem mem.Model

	// capBuf[capStart[id]:capStart[id+1]] are task id's capable core
	// IDs (preferred-PE filtered).
	capStart []int32
	capBuf   []int

	// durs[id*nPE+pe] is the task's execution time on core pe at its
	// bound DVFS level, or -1 when the task cannot run there.
	durs []sim.Time
	// infCost[pe] is Cycles(1<<50) — the legacy "impossible" charge the
	// throughput objective adds for an infeasible placement, kept
	// bit-identical to the pre-Evaluator implementation.
	infCost []sim.Time

	// pairLat[src*nPE+dst] and preds[j].lat split the contention-free
	// cost of a cross-PE edge — fabric plus memory estimate — into the
	// core-pair term and the payload term of aggregated predecessor
	// record j: the fabric's and the memory model's EstPairLatency
	// and EstPayloadLatency, summed.
	pairLat []sim.Time
	// clocks[pe] is core pe's class and clock as bound. listMap's
	// upward rank reads them besides the tables above; its
	// communication term is the pair term of (0, last) plus the
	// payload term, the same calls pairLat's and preds' entries sum,
	// so equal tables and clocks rank equally.
	clocks []coreClock

	// The schedule kernel's state is indexed by topological position
	// q: order[q] is the task there (the view's order) and pos[id] the
	// position of task id. peq[q] is the core of the task at q, fq[q]
	// its finish time in the last schedule built, and prevq[q] the
	// finish the last suffix overwrote, so a rejected anneal move can
	// restore it (lowerBound borrows it in between). tail[q] is the
	// longest path after position q at fastest capable times with free
	// communication (tails), the bound a limited suffix stops on.
	// preds[predStart[q]:predStart[q+1]] are the task's aggregated
	// predecessors in Preds order, each as the predecessor's position
	// and the edge's payload latency. Index tables are int32 to keep
	// the scratch small.
	order     []int
	pos       []int32
	peq       []int32
	fq        []sim.Time
	prevq     []sim.Time
	tail      []sim.Time
	predStart []int32
	preds     []predRec

	peAvail []sim.Time
	load    []sim.Time

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

	// kept reports that result is what Map returned for keptOpt and
	// that nothing the search reads has changed since: Bind keeps it
	// only when every table it writes comes out as it was, whatever
	// the graph and platform objects' identity, and Map clears it
	// before a search overwrites the scratch behind result.
	kept    bool
	keptOpt Options

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
// tables are frozen at bind time. A Bind that reproduces every table
// of the last one — the same graph on an equal platform, such as the
// same design point at another fidelity — keeps Map's last result.
func (e *Evaluator) Bind(g *taskgraph.Graph, plat *platform.Platform) {
	v := g.View()
	n := len(g.Tasks)
	nPE := len(plat.Cores)
	// same tracks whether the tables come out as they were: first the
	// graph and the table sizes, then every entry as it is written.
	same := e.kept && g == e.g && v == e.view && n+1 == len(e.capStart) && nPE == len(e.infCost)
	e.g, e.plat = g, plat
	e.mem = plat.Mem
	e.view = v

	e.capStart = grow(e.capStart, n+1)
	e.capStart[0] = 0
	need := n * nPE
	oldCap := e.capBuf
	if cap(e.capBuf) < need {
		e.capBuf = make([]int, 0, need)
	}
	e.capBuf = e.capBuf[:0]
	e.durs = grow(e.durs, need)
	e.infCost = grow(e.infCost, nPE)
	e.peAvail = grow(e.peAvail, nPE)
	e.pos = grow(e.pos, n)
	e.peq = grow(e.peq, n)
	e.fq = grow(e.fq, n)
	e.prevq = grow(e.prevq, n)
	e.tail = grow(e.tail, n)
	e.load = grow(e.load, nPE)
	e.clocks = grow(e.clocks, nPE)

	for pe, c := range plat.Cores {
		same = put(e.infCost, pe, c.Cycles(1<<50), same)
		same = put(e.clocks, pe, coreClock{c.Class, c.Hz()}, same)
	}
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
		for _, c := range plat.Cores {
			if !v.CanRunOn(id, c.Class) {
				same = put(e.durs, id*nPE+c.ID, -1, same)
				continue
			}
			same = put(e.durs, id*nPE+c.ID, c.Cycles(v.CyclesOn(id, c.Class)), same)
			if !usePref || c.Class == t.PreferredPE {
				// The slot still holds the last Bind's entry.
				q := len(e.capBuf)
				same = same && q < len(oldCap) && oldCap[q] == c.ID
				e.capBuf = append(e.capBuf, c.ID)
			}
		}
		same = put(e.capStart, id+1, int32(len(e.capBuf)), same)
	}
	same = same && len(e.capBuf) == len(oldCap)

	e.pairLat = grow(e.pairLat, nPE*nPE)
	for src := 0; src < nPE; src++ {
		for dst := 0; dst < nPE; dst++ {
			l := plat.Fabric.EstPairLatency(src, dst)
			if e.mem != nil {
				l += e.mem.EstPairLatency(src, dst)
			}
			same = put(e.pairLat, src*nPE+dst, l, same)
		}
	}
	// A cyclic graph has no order: its tables stay empty, and schedule
	// and Map report the cycle before reading them.
	e.order, _ = v.TopoOrder()
	e.predStart = grow(e.predStart, n+1)
	e.preds = grow(e.preds, v.PredBase(n))
	var j int32
	for q, id := range e.order {
		e.pos[id] = int32(q)
		e.predStart[q] = j
		for _, pr := range v.Preds(id) {
			l := plat.Fabric.EstPayloadLatency(pr.Bytes)
			if e.mem != nil {
				l += e.mem.EstPayloadLatency(pr.Bytes)
			}
			same = put(e.preds, int(j), predRec{q: e.pos[pr.Task], lat: l}, same)
			j++
		}
	}
	e.predStart[len(e.order)] = j
	e.kept = same
}

// predRec is one aggregated predecessor record of the schedule kernel:
// the predecessor's topological position and the payload term of the
// edge's latency.
type predRec struct {
	q   int32
	lat sim.Time
}

// coreClock is what listMap reads of a core.
type coreClock struct {
	class platform.PEClass
	hz    int64
}

// put stores x at s[i] and returns same, cleared if s[i] held another
// value.
func put[T comparable](s []T, i int, x T, same bool) bool {
	same = same && s[i] == x
	s[i] = x
	return same
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
func (e *Evaluator) Capable(id int) []int {
	lo, hi := e.capStart[id], e.capStart[id+1]
	return e.capBuf[lo:hi:hi]
}

// schedule computes the static schedule for a fixed assignment:
// topological order, communication charged at contention-free fabric
// and memory estimates, one task at a time per PE. It loads the
// assignment into the kernel by position, checking every task's core
// first, and runs the whole order (suffix from 0). It runs entirely in
// reused scratch: with wantSlots true it also returns the slot list
// in topological order, which is evaluator scratch valid until the
// next schedule.
func (e *Evaluator) schedule(taskPE []int, wantSlots bool) (sim.Time, []Slot, error) {
	order, err := e.view.TopoOrder()
	if err != nil {
		e.Obs.Schedules.Inc()
		return 0, nil, err
	}
	nPE := len(e.plat.Cores)
	for q, id := range order {
		pe := taskPE[id]
		if e.durs[id*nPE+pe] < 0 {
			e.Obs.Schedules.Inc()
			e.Obs.TasksScheduled.Add(int64(q))
			return 0, nil, fmt.Errorf("mapping: task %q cannot run on core %d (%v)", e.g.Tasks[id].Name, pe, e.plat.Core(pe).Class)
		}
		e.peq[q] = int32(pe)
	}
	makespan, _ := e.suffix(0, sim.Forever)
	if !wantSlots {
		return makespan, nil, nil
	}
	if cap(e.slots) < len(order) {
		e.slots = make([]Slot, 0, len(order))
	}
	slots := e.slots[:0]
	for q, id := range order {
		pe, end := int(e.peq[q]), e.fq[q]
		slots = append(slots, Slot{Task: id, PE: pe, Start: end - e.durs[id*nPE+pe], Finish: end})
	}
	e.slots = slots
	return makespan, slots, nil
}

// suffix is the schedule kernel: it reschedules topological positions
// from on under the assignment in peq and returns the makespan and the
// position it stopped before. A task's schedule depends only on the
// tasks before it in topological order, so when fq holds a schedule
// whose assignment agrees with peq on every position before from — the
// annealer's committed state after moving the task at from — those
// finish times are still exact: one scan of them rebuilds each PE's
// availability (the finish of its last task so far) and the running
// makespan. Each finish time it overwrites is saved in prevq for
// restore. Every core in peq must be capable of its task (schedule
// checks; annealer moves pick capable cores), so the loop holds only
// arithmetic.
//
// The makespan is at least each task's finish plus tail at its
// position, so once that bound passes limit the suffix stops: it
// returns stop < len(order), having rescheduled [from, stop) only, and
// a makespan that is no cost at all. With limit sim.Forever it never
// stops, whatever tail holds.
func (e *Evaluator) suffix(from int, limit sim.Time) (makespan sim.Time, stop int) {
	n := len(e.order)
	order, peq, fq, prevq, tail := e.order, e.peq[:n], e.fq[:n], e.prevq[:n], e.tail[:n]
	e.Obs.Schedules.Inc()
	peAvail := e.peAvail
	clear(peAvail)
	for q, end := range fq[:from] {
		peAvail[peq[q]] = end
		makespan = max(makespan, end)
	}
	nPE := len(peAvail)
	durs, pairLat, preds, predStart := e.durs, e.pairLat, e.preds, e.predStart[:n+1]
	for q := from; q < n; q++ {
		pe := int(peq[q])
		var ready sim.Time
		for _, r := range preds[predStart[q]:predStart[q+1]] {
			src := int(peq[r.q])
			lat := pairLat[src*nPE+pe] + r.lat
			if src == pe {
				lat = 0
			}
			ready = max(ready, fq[r.q]+lat)
		}
		end := max(ready, peAvail[pe]) + durs[order[q]*nPE+pe]
		peAvail[pe] = end
		prevq[q] = fq[q]
		fq[q] = end
		makespan = max(makespan, end)
		if end+tail[q] > limit {
			n = q + 1
			break
		}
	}
	e.Obs.TasksScheduled.Add(int64(n - from))
	return makespan, n
}

// restore puts back the finish times the last suffix, which ran from
// from and stopped before stop, overwrote, returning fq to the
// schedule it resumed from. The caller puts back the core it changed
// in peq.
func (e *Evaluator) restore(from, stop int) {
	copy(e.fq[from:stop], e.prevq[from:stop])
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
// are read-only evaluator scratch, valid until the next Map or Bind: a
// caller that keeps a mapping past that copies it (or uses the
// package-level Map, whose result it owns).
//
// A search reads only the graph, what Bind recorded and opt, so when
// none of them changed since the last Map returned, Map returns
// that assignment again, on the bound platform, without searching.
func (e *Evaluator) Map(opt Options) (*Assignment, error) {
	if e.kept && opt == e.keptOpt {
		e.result.Platform = e.plat
		return &e.result, nil
	}
	e.kept = false
	g, plat := e.g, e.plat
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(plat.Cores) == 0 {
		return nil, fmt.Errorf("mapping: platform has no cores")
	}
	for id, t := range g.Tasks {
		if len(e.Capable(id)) == 0 {
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
	e.kept, e.keptOpt = true, opt
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
	order := e.order
	last := len(plat.Cores) - 1
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, s := range v.Succs(id) {
			comm := float64(plat.Fabric.EstPairLatency(0, last) + plat.Fabric.EstPayloadLatency(s.Bytes))
			if e.mem != nil {
				comm += float64(e.mem.EstPairLatency(0, last) + e.mem.EstPayloadLatency(s.Bytes))
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
	// fq holds each placed task's earliest finish, by position.
	fq := e.fq
	for _, id := range ids {
		bestPE, bestEFT := -1, sim.Forever
		q := e.pos[id]
		preds := e.preds[e.predStart[q]:e.predStart[q+1]]
		for _, pe := range e.Capable(id) {
			ready := sim.Time(0)
			for _, r := range preds {
				src := taskPE[order[r.q]]
				if src < 0 {
					continue // predecessor not placed yet (rank order anomaly)
				}
				arr := fq[r.q]
				if src != pe {
					arr += e.pairLat[src*nPE+pe] + r.lat
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
		fq[q] = bestEFT
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
		for _, pe := range e.Capable(id) {
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

// lowerBound returns an admissible lower bound on the objective cost
// of every assignment that puts each task on one of its capable cores.
// Each task takes at least its fastest capable time, and a core runs
// one task at a time, so both objectives are at least that total
// spread over all cores (rounded up: costs are whole picoseconds). A
// makespan is also at least the critical path at those times with
// every communication free — the schedule kernel only adds
// non-negative latencies — and a throughput period at least the
// longest single task. It reads only bound tables and writes prevq,
// which holds nothing between a suffix and the restore that follows
// it; fq, the schedule a suffix resumes from, is left alone.
func (e *Evaluator) lowerBound(objective Objective) sim.Time {
	nPE := len(e.plat.Cores)
	eft := e.prevq
	var total, longest sim.Time
	for q, id := range e.order {
		d := e.fastest(id)
		total += d
		if objective == Makespan {
			// eft[q] is the task's finish on that critical path.
			var ready sim.Time
			for _, r := range e.preds[e.predStart[q]:e.predStart[q+1]] {
				ready = max(ready, eft[r.q])
			}
			d += ready
			eft[q] = d
		}
		longest = max(longest, d)
	}
	return max(longest, (total+sim.Time(nPE)-1)/sim.Time(nPE))
}

// fastest returns task id's shortest time on a capable core.
func (e *Evaluator) fastest(id int) sim.Time {
	nPE := len(e.plat.Cores)
	d := sim.Forever
	for _, pe := range e.Capable(id) {
		d = min(d, e.durs[id*nPE+pe])
	}
	return d
}

// tails fills tail: tail[q] is the longest path from the task at
// position q to an exit, its own time excluded, at fastest capable
// times with free communication. Whatever cores the later tasks take,
// none starts before its predecessors finish or runs faster, so a
// schedule's makespan is at least any task's finish plus its tail.
func (e *Evaluator) tails() {
	tail := e.tail
	clear(tail)
	for q := len(e.order) - 1; q >= 0; q-- {
		// Every successor has a later position, so tail[q] is final.
		d := e.fastest(e.order[q]) + tail[q]
		for _, r := range e.preds[e.predStart[q]:e.predStart[q+1]] {
			tail[r.q] = max(tail[r.q], d)
		}
	}
}

// annealMap refines the list (or, for throughput, LPT) mapping with
// simulated annealing over single-task moves, optimizing the selected
// objective; deterministic under Options.Seed.
func (e *Evaluator) annealMap(opt Options) ([]int, error) {
	return e.anneal(opt, xrand.New(opt.Seed+1))
}

// anneal is annealMap drawing from rng. A start whose cost meets
// lowerBound is returned unannealed, and the search ends at the move
// whose best meets it. Moves mutate the current assignment in place
// and revert on reject. Every move cost is computed incrementally: a
// move that picks the task's current core keeps the current cost (and,
// at dE = 0, is accepted without drawing from the RNG); the throughput
// objective updates two per-core loads; the makespan objective
// reschedules only from the moved task's topological position on
// (suffix), restoring the committed finish times and the moved task's
// core on reject. All produce the exact cost values of a full
// recomputation, so the accept/reject trajectory — and therefore the
// returned assignment — is byte-identical to the copying
// implementation.
//
// A makespan move reads its acceptance draw u before it reschedules,
// from a copy of rng: u fixes the largest cost the move can have and
// still be accepted (costLimit), so the suffix stops once its bound
// passes that limit, and the move is rejected having drawn u, as a
// complete reschedule would have been.
func (e *Evaluator) anneal(opt Options, rng *xrand.Rand) ([]int, error) {
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
	curCost := e.objectiveCost(opt.Objective, cur)
	best := append(e.best[:0], cur...)
	e.best = best
	lb := e.lowerBound(opt.Objective)
	if curCost == lb {
		// The start is optimal: best only takes a strictly lower cost,
		// so no move could change what the search returns.
		e.Obs.Certified.Inc()
		return best, nil
	}
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
	// Makespan: the kernel now holds cur's schedule (objectiveCost
	// above), and peq follows cur; moves reschedule from the moved
	// task's position.
	pos, peq := e.pos, e.peq
	n := len(e.order)
	if opt.Objective == Makespan {
		e.tails()
	}
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := e.Capable(tIdx)
		oldPE := cur[tIdx]
		newPE := cands[rng.Intn(len(cands))]
		t := max(temp, 1) // equals math.Max(temp, 1): temp is positive and finite
		// A move onto the task's current core keeps curCost.
		nc, stop := curCost, n
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
				peek := *rng
				_, hi := expBand(peek.Float64())
				peq[pos[tIdx]] = int32(newPE)
				nc, stop = e.suffix(int(pos[tIdx]), costLimit(curCost, hi, t))
			}
		}
		e.Obs.AnnealMoves.Inc()
		// dE <= 0 is accepted without a draw; a stopped suffix's cost
		// is past the limit, so its draw rejects it.
		accept := stop == n && nc <= curCost
		if !accept {
			u := rng.Float64()
			accept = stop == n && below(u, float64(nc-curCost)/t)
		}
		if accept {
			e.Obs.AnnealAccepts.Inc()
			curCost = nc
			if curCost < bestCost {
				copy(best, cur)
				bestCost = curCost
				if bestCost == lb {
					// Optimal too: no later move can be strictly better.
					e.Obs.Certified.Inc()
					return best, nil
				}
			}
		} else {
			e.Obs.AnnealRejects.Inc()
			cur[tIdx] = oldPE
			if opt.Objective == Throughput {
				load[newPE] -= dur(tIdx, newPE)
				load[oldPE] += dur(tIdx, oldPE)
			} else {
				peq[pos[tIdx]] = int32(oldPE)
				e.restore(int(pos[tIdx]), stop)
			}
		}
		temp *= 0.995
	}
	return best, nil
}

// bandMargin widens expBand's bracket far beyond math.Exp's error of
// at most one ulp and the bracket's own rounding.
const bandMargin = 1e-6

// expBand returns a bracket [lo, hi] of -ln u, the largest x for which
// u < exp(-x), widened by bandMargin, from u's exponent and mantissa
// alone: with u = m·2^e and m in [½, 1), -ln u = -e·ln 2 - ln m and
// -ln m lies in [1-m, (1-m)/m]. Below 2^-1000 (u = 0 is the only such
// draw) it returns (-Inf, +Inf), so below always calls Exp there.
func expBand(u float64) (lo, hi float64) {
	if u < 0x1p-1000 {
		return math.Inf(-1), math.Inf(1)
	}
	// u is normal: math.Frexp's m and e straight from the bits.
	b := math.Float64bits(u)
	m := math.Float64frombits(b&(1<<52-1) | 1022<<52)
	base := float64(1022-int(b>>52)) * math.Ln2
	return base + (1 - m) - bandMargin, base + (1-m)/m + bandMargin
}

// below reports u < math.Exp(-x), exactly, for u in [0, 1): x below
// u's band is accepted and x above it rejected without calling Exp.
func below(u, x float64) bool {
	lo, hi := expBand(u)
	return x < lo || x <= hi && u < math.Exp(-x)
}

// costLimit returns the largest cost a move from cost cur can have
// without being certainly rejected at temperature t by a draw whose
// band tops out at hi. A cost above it is a dE > hi·t, whose x = dE/t,
// as the move computes it, is at least hi less a few ulps: still past
// -ln u by nearly bandMargin, so below rejects it.
func costLimit(cur sim.Time, hi, t float64) sim.Time {
	d := hi * t
	if !(d < float64(sim.Forever-cur)) {
		return sim.Forever
	}
	return cur + sim.Time(d)
}

// exhaustiveMap enumerates all feasible assignments under the
// selected objective with branch-and-bound: a prefix is cut when an
// admissible lower bound — the larger of the most-loaded core so far
// and the remaining work spread perfectly over all cores — already
// meets the incumbent, and enumeration stops once the incumbent meets
// lowerBound. Bounds never cut a strictly better leaf and enumeration
// order is unchanged, so the returned assignment is the plain
// enumeration's first-found argmin, byte for byte. Guarded to
// small instances (the paper's exploration loop for design studies).
func (e *Evaluator) exhaustiveMap(objective Objective) ([]int, error) {
	g := e.g
	n := len(g.Tasks)
	nPE := len(e.plat.Cores)
	space := 1
	for id := range g.Tasks {
		space *= len(e.Capable(id))
		if space > 500_000 {
			return nil, fmt.Errorf("mapping: exhaustive search space too large (>500k); use list or anneal")
		}
	}
	// remMin[i] is the fastest capable-core time summed over tasks
	// i..n-1 — the admissible remaining-work term.
	remMin := make([]sim.Time, n+1)
	for id := n - 1; id >= 0; id-- {
		remMin[id] = remMin[id+1] + e.fastest(id)
	}
	floor := e.lowerBound(objective)
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
		for _, pe := range e.Capable(i) {
			if bestCost == floor {
				return // no later leaf can be strictly better
			}
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
	if bestCost == floor {
		e.Obs.Certified.Inc()
	}
	return best, nil
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
