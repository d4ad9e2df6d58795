package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
	"mpsockit/internal/xrand"
)

// Equivalence tests: the zero-allocation Evaluator hot path must
// reproduce the seed implementation byte for byte — same makespans,
// same slots, same annealing trajectory, same exhaustive argmin. The
// reference implementations below are verbatim copies of the
// pre-Evaluator code (per-call edge scans, full-copy anneal moves,
// plain enumeration).

func capableRef(g *taskgraph.Graph, plat *platform.Platform, t *taskgraph.Task) []int {
	var pref, all []int
	for _, c := range plat.Cores {
		if !t.CanRunOn(c.Class) {
			continue
		}
		all = append(all, c.ID)
		if t.HasPref && c.Class == t.PreferredPE {
			pref = append(pref, c.ID)
		}
	}
	if t.HasPref && len(pref) > 0 {
		return pref
	}
	return all
}

// evaluateRef is the schedule kernel's oracle: it takes the
// topological order from the View but reads each task's predecessors
// and in-bytes straight from g.Edges, independent of the View's
// adjacency.
func evaluateRef(g *taskgraph.Graph, plat *platform.Platform, taskPE []int) (sim.Time, []Slot, error) {
	order, err := g.View().TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	peAvail := make([]sim.Time, len(plat.Cores))
	finish := make([]sim.Time, len(g.Tasks))
	slots := make([]Slot, 0, len(g.Tasks))
	var makespan sim.Time
	for _, id := range order {
		t := g.Tasks[id]
		pe := taskPE[id]
		core := plat.Core(pe)
		if !t.CanRunOn(core.Class) {
			return 0, nil, nil // callers below only compare the error case by presence
		}
		ready := sim.Time(0)
		for _, e := range g.Edges {
			if e.To != id {
				continue
			}
			p := e.From
			arr := finish[p]
			if taskPE[p] != pe {
				b := 0
				for _, f := range g.Edges {
					if f.From == p && f.To == id {
						b += f.Bytes
					}
				}
				arr += plat.Fabric.EstPairLatency(taskPE[p], pe) + plat.Fabric.EstPayloadLatency(b)
				if plat.Mem != nil {
					arr += plat.Mem.EstPairLatency(taskPE[p], pe) + plat.Mem.EstPayloadLatency(b)
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
		end := start + core.Cycles(t.CyclesOn(core.Class))
		peAvail[pe] = end
		finish[id] = end
		slots = append(slots, Slot{Task: id, PE: pe, Start: start, Finish: end})
		if end > makespan {
			makespan = end
		}
	}
	return makespan, slots, nil
}

func objectiveCostRef(g *taskgraph.Graph, plat *platform.Platform, objective Objective, assign []int) sim.Time {
	if objective == Throughput {
		load := make([]sim.Time, len(plat.Cores))
		var worst sim.Time
		for id, pe := range assign {
			core := plat.Core(pe)
			load[pe] += core.Cycles(g.Tasks[id].CyclesOn(core.Class))
			if load[pe] > worst {
				worst = load[pe]
			}
		}
		return worst
	}
	mk, slots, err := evaluateRef(g, plat, assign)
	if err != nil || slots == nil {
		return sim.Forever
	}
	return mk
}

// annealMapRef is the seed annealer: full assignment copy per move,
// full cost recomputation per candidate.
func annealMapRef(g *taskgraph.Graph, plat *platform.Platform, opt Options, start []int) []int {
	cur := append([]int{}, start...)
	iters := opt.Iterations
	if iters <= 0 {
		iters = 2000
	}
	rng := xrand.New(opt.Seed + 1)
	cost := func(assign []int) sim.Time {
		return objectiveCostRef(g, plat, opt.Objective, assign)
	}
	curCost := cost(cur)
	best := append([]int{}, cur...)
	bestCost := curCost
	temp := float64(curCost)
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := capableRef(g, plat, g.Tasks[tIdx])
		next := append([]int{}, cur...)
		next[tIdx] = cands[rng.Intn(len(cands))]
		nc := cost(next)
		dE := float64(nc - curCost)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1)) {
			cur, curCost = next, nc
			if curCost < bestCost {
				best = append([]int{}, cur...)
				bestCost = curCost
			}
		}
		temp *= 0.995
	}
	return best
}

// exhaustiveMapRef is the seed plain enumeration (first-found min). It
// also returns how many leaves it had scored when it first found that
// minimum.
func exhaustiveMapRef(g *taskgraph.Graph, plat *platform.Platform, objective Objective) ([]int, int) {
	n := len(g.Tasks)
	cands := make([][]int, n)
	for i, t := range g.Tasks {
		cands[i] = capableRef(g, plat, t)
	}
	assign := make([]int, n)
	best := make([]int, n)
	bestCost := sim.Forever
	var leaves, first int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			leaves++
			c := objectiveCostRef(g, plat, objective, assign)
			if c < bestCost {
				bestCost = c
				copy(best, assign)
				first = leaves
			}
			return
		}
		for _, pe := range cands[i] {
			assign[i] = pe
			rec(i + 1)
		}
	}
	rec(0)
	return best, first
}

// evalPlatforms builds the platform shapes the default sweep crosses,
// each on a private kernel.
func evalPlatforms() []*platform.Platform {
	var plats []*platform.Platform
	build := func(f func(k *sim.Kernel) *platform.Platform) {
		k := sim.NewKernel()
		plats = append(plats, f(k))
	}
	build(func(k *sim.Kernel) *platform.Platform { return platform.NewWirelessTerminal(k, noc.MeshFor(k, 6)) })
	build(func(k *sim.Kernel) *platform.Platform { return platform.NewWirelessTerminal(k, noc.DefaultBus(k)) })
	build(func(k *sim.Kernel) *platform.Platform {
		return platform.NewHomogeneous(k, 4, 1_000_000_000, noc.MeshFor(k, 4))
	})
	build(func(k *sim.Kernel) *platform.Platform {
		return platform.NewHomogeneous(k, 8, 1_000_000_000, noc.DefaultBus(k))
	})
	build(func(k *sim.Kernel) *platform.Platform { return platform.NewCellLike(k, 4, noc.MeshFor(k, 5)) })
	build(func(k *sim.Kernel) *platform.Platform { return platform.NewMPCoreLike(k, 2, noc.DefaultBus(k)) })
	// DVFS variants: pin every core to its lowest and highest level.
	for _, lvl := range []int{0, 2} {
		k := sim.NewKernel()
		p := platform.NewWirelessTerminal(k, noc.MeshFor(k, 6))
		for _, c := range p.Cores {
			if lvl < len(c.Levels) {
				if err := c.SetLevel(lvl); err != nil {
					panic(err)
				}
			}
		}
		plats = append(plats, p)
	}
	return plats
}

func evalWorkloads() []*taskgraph.Graph {
	return []*taskgraph.Graph{
		workload.JPEGTaskGraph(),
		workload.H264TaskGraph(),
		workload.CarRadioTaskGraph(),
		workload.SyntheticTaskGraph(16, 7),
		workload.SyntheticTaskGraph(24, 99),
	}
}

// TestScheduleEquivalence: the scratch-based schedule reproduces the
// seed evaluate on random graphs, platforms and capable assignments.
func TestScheduleEquivalence(t *testing.T) {
	plats := evalPlatforms()
	f := func(tasks []uint8, edges []uint16, seed uint64) bool {
		if len(tasks) == 0 {
			return true
		}
		if len(edges) > 16 {
			edges = edges[:16]
		}
		g := randomDAG(tasks, edges)
		if g.Validate() != nil {
			return true
		}
		plat := plats[int(seed%uint64(len(plats)))]
		ev := NewEvaluator(g, plat)
		rng := xrand.New(seed)
		assign := make([]int, len(g.Tasks))
		for id := range assign {
			cands := capableRef(g, plat, g.Tasks[id])
			if len(cands) == 0 {
				return true
			}
			assign[id] = cands[rng.Intn(len(cands))]
		}
		wantMk, wantSlots, err := evaluateRef(g, plat, assign)
		if err != nil || wantSlots == nil {
			return true
		}
		gotMk, gotSlots, err := ev.schedule(assign, true)
		if err != nil {
			return false
		}
		if gotMk != wantMk || !reflect.DeepEqual(gotSlots, wantSlots) {
			t.Logf("schedule mismatch: got %v want %v", gotMk, wantMk)
			return false
		}
		// Cost paths too, both objectives.
		for _, obj := range []Objective{Makespan, Throughput} {
			if ev.objectiveCost(obj, assign) != objectiveCostRef(g, plat, obj, assign) {
				t.Logf("objectiveCost mismatch (obj %d)", obj)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealEquivalence: the move/undo delta-cost annealer follows the
// exact accept/reject trajectory of the seed full-copy annealer — the
// returned assignments match element for element across the default
// sweep's workload × platform × objective cross, several seeds each.
// The cross must hold, per objective, starts the lower bound certifies
// (returned unannealed), searches whose best meets it after some moves
// (ended there) and searches that run every move, so all three paths
// meet the oracle.
func TestAnnealEquivalence(t *testing.T) {
	plats := evalPlatforms()
	graphs := evalWorkloads()
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var certified, inLoop, annealed [2]int
	for gi, g := range graphs {
		for pi, plat := range plats {
			for _, obj := range []Objective{Makespan, Throughput} {
				for _, seed := range []uint64{1, 42, 0xdead} {
					opt := Options{Heuristic: Anneal, Objective: obj, Seed: seed, Iterations: iters}
					ev := NewEvaluator(g, plat)
					ev.Obs = liveSearchObs(obs.NewRegistry())
					got, err := ev.annealMap(opt)
					if err != nil {
						t.Fatalf("graph %d plat %d: %v", gi, pi, err)
					}
					switch {
					case ev.Obs.Certified.Value() == 0:
						annealed[obj]++
					case ev.Obs.AnnealMoves.Value() == 0:
						certified[obj]++
					default:
						inLoop[obj]++
					}
					var start []int
					if obj == Throughput {
						start, err = ev.throughputMap()
					} else {
						start, err = ev.listMap()
					}
					if err != nil {
						t.Fatal(err)
					}
					want := annealMapRef(g, plat, opt, start)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("graph %d plat %d obj %d seed %d: anneal diverged\ngot  %v\nwant %v",
							gi, pi, obj, seed, got, want)
					}
				}
			}
		}
	}
	for obj := range certified {
		// A short run's 300 moves reach the bound too rarely to require.
		if certified[obj] == 0 || inLoop[obj] == 0 && !testing.Short() || annealed[obj] == 0 {
			t.Fatalf("objective %d: %d certified starts, %d ended at the bound after a move, %d annealed; the cross must hold all three",
				obj, certified[obj], inLoop[obj], annealed[obj])
		}
		t.Logf("objective %d: %d certified starts, %d ended at the bound after a move, %d annealed", obj, certified[obj], inLoop[obj], annealed[obj])
	}
}

// TestExhaustiveEquivalence: branch-and-bound returns the plain
// enumeration's first-found argmin on every small workload, both
// objectives. A search whose incumbent meets the lower bound scores no
// leaf after the plain enumeration's first argmin: on carradio on the
// wireless mesh (makespan) that is fewer than the 464 leaves the load
// bound alone leaves to score.
func TestExhaustiveEquivalence(t *testing.T) {
	plats := evalPlatforms()
	graphs := []*taskgraph.Graph{
		workload.CarRadioTaskGraph(),
		chainGraph(5, 10_000, 4096),
		forkJoin(3, 20_000),
		workload.SyntheticTaskGraph(6, 3),
	}
	for gi, g := range graphs {
		for pi, plat := range plats {
			for _, obj := range []Objective{Makespan, Throughput} {
				ev := NewEvaluator(g, plat)
				ev.Obs = liveSearchObs(obs.NewRegistry())
				got, err := ev.exhaustiveMap(obj)
				if err != nil {
					t.Fatalf("graph %d plat %d: %v", gi, pi, err)
				}
				want, first := exhaustiveMapRef(g, plat, obj)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d plat %d obj %d: exhaustive diverged\ngot  %v\nwant %v",
						gi, pi, obj, got, want)
				}
				evals := ev.Obs.CostEvals.Value()
				if ev.Obs.Certified.Value() == 1 && evals > int64(first) {
					t.Fatalf("graph %d plat %d obj %d: certified search scored %d leaves, the first argmin is leaf %d",
						gi, pi, obj, evals, first)
				}
				if gi == 0 && pi == 0 && obj == Makespan {
					if ev.Obs.Certified.Value() != 1 || evals >= 464 {
						t.Fatalf("carradio on wireless: certified %d, %d leaves scored; want a certified search under 464",
							ev.Obs.Certified.Value(), evals)
					}
				}
			}
		}
	}
}

// TestCapableEquivalence: the precomputed capable-core sets match the
// per-call reference, including preferred-PE filtering.
func TestCapableEquivalence(t *testing.T) {
	plats := evalPlatforms()
	for _, g := range evalWorkloads() {
		for _, plat := range plats {
			ev := NewEvaluator(g, plat)
			for id, task := range g.Tasks {
				want := capableRef(g, plat, task)
				got := ev.Capable(id)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s task %d capable mismatch: got %v want %v", g.Name, id, got, want)
				}
			}
		}
	}
}

// TestThroughputWeightZeroCycle: regression for the LPT weight
// sentinel bug — a task whose fastest capable core needs 0 cycles
// must keep weight 0 (lightest), not pick up a slower core's time
// when a later core in ID order is also capable.
func TestThroughputWeightZeroCycle(t *testing.T) {
	k := sim.NewKernel()
	plat := platform.NewWirelessTerminal(k, noc.MeshFor(k, 6))
	g := taskgraph.NewGraph("zerocycle")
	// t0 runs in 0 cycles on the DSPs but is also capable (slowly) on
	// the VLIW core that comes later in core order; t1 is a normal DSP
	// task. With the sentinel bug t0 weighed as the VLIW time and was
	// placed first; weighted correctly it is the lightest task and
	// lands on the second DSP after t1 takes the first.
	t0 := g.AddTask(&taskgraph.Task{Name: "t0", WCET: map[platform.PEClass]int64{
		platform.DSP: 0, platform.VLIW: 1_000_000,
	}})
	t1 := g.AddTask(&taskgraph.Task{Name: "t1", WCET: map[platform.PEClass]int64{
		platform.DSP: 30,
	}})
	_, _ = t0, t1
	ev := NewEvaluator(g, plat)
	taskPE, err := ev.throughputMap()
	if err != nil {
		t.Fatal(err)
	}
	// Wireless core order: arm0, arm1, dsp0(2), dsp1(3), vliw0, acc0.
	if taskPE[1] != 2 || taskPE[0] != 3 {
		t.Fatalf("LPT misordered zero-cycle task: taskPE = %v (want t1->2, t0->3)", taskPE)
	}
}

// TestMapMalformedGraphError: Map on a graph with out-of-range edge
// endpoints (edges edited outside AddTask/Connect) must return the
// Validate error like the seed implementation, not panic building
// the adjacency view.
func TestMapMalformedGraphError(t *testing.T) {
	g := taskgraph.NewGraph("broken")
	g.AddTask(&taskgraph.Task{Name: "t", WCET: map[platform.PEClass]int64{platform.RISC: 100}})
	g.Edges = append(g.Edges, taskgraph.Edge{From: 0, To: 5, Bytes: 1})
	if _, err := Map(g, wirelessPlat(), Options{}); err == nil {
		t.Fatal("Map accepted out-of-range edge")
	}
}

// TestScheduleZeroAlloc: the candidate-scoring hot path must not
// allocate — the contract the anneal and exhaustive speedups rest on.
func TestScheduleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counts are unreliable under -short CI modes (race)")
	}
	g := workload.SyntheticTaskGraph(16, 42)
	k := sim.NewKernel()
	plat := platform.NewWirelessTerminal(k, noc.MeshFor(k, 6))
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("schedule allocates %.1f allocs/op, want 0", n)
	}
	for _, obj := range []Objective{Makespan, Throughput} {
		obj := obj
		if n := testing.AllocsPerRun(200, func() {
			ev.objectiveCost(obj, a.TaskPE)
		}); n != 0 {
			t.Fatalf("objectiveCost(%d) allocates %.1f allocs/op, want 0", obj, n)
		}
	}
}

// annealUnbounded is the annealer before moves read their draw ahead:
// every makespan move reschedules its whole suffix (suffix with limit
// sim.Forever) and every uphill move calls math.Exp. It is the oracle
// of TestBoundedAnnealMatchesUnbounded.
func annealUnbounded(e *Evaluator, opt Options, rng *xrand.Rand) ([]int, error) {
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
		e.Obs.Certified.Inc()
		return best, nil
	}
	bestCost := curCost
	temp := float64(curCost)
	load := e.load
	dur := func(id, pe int) sim.Time {
		if d := e.durs[id*nPE+pe]; d >= 0 {
			return d
		}
		return e.infCost[pe]
	}
	pos, peq := e.pos, e.peq
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := e.Capable(tIdx)
		oldPE := cur[tIdx]
		newPE := cands[rng.Intn(len(cands))]
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
				peq[pos[tIdx]] = int32(newPE)
				nc, _ = e.suffix(int(pos[tIdx]), sim.Forever)
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
				if bestCost == lb {
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
				e.restore(int(pos[tIdx]), len(e.order))
			}
		}
		temp *= 0.995
	}
	return best, nil
}

// shrunk returns g with every WCET divided by 1000 (at least 1 cycle),
// so an anneal's cost is small enough for its temperature to reach the
// max(temp, 1) floor within a few thousand moves.
func shrunk(g *taskgraph.Graph) *taskgraph.Graph {
	for _, t := range g.Tasks {
		for c, cyc := range t.WCET {
			t.WCET[c] = max(cyc/1000, 1)
		}
	}
	return g
}

// TestBoundedAnnealMatchesUnbounded: the annealer whose makespan moves
// stop rescheduling once their rejection is certain returns the
// unbounded annealer's assignment with the same RNG trajectory (equal
// generator state after the search) and the same search counts, only
// TasksScheduled lower or equal, on 240 pinned-seed cases: permDAGs
// and multi-app unions of two or three, on the incPlatforms cross
// (ideal, bank and bw memory; mesh and bus), both objectives, and
// shrunk graphs annealed long enough that the temperature sits at its
// floor of 1 for hundreds of moves.
func TestBoundedAnnealMatchesUnbounded(t *testing.T) {
	plats := incPlatforms(t)
	rng := xrand.New(0xb0d)
	var stopped, floor, unions int
	for c := 0; c < 240; c++ {
		var g *taskgraph.Graph
		if apps := rng.Intn(3); apps < 2 {
			g = permDAG(rng, rng.Intn(30)+2)
		} else {
			unions++
			parts := make([]*taskgraph.Graph, rng.Intn(2)+2)
			for i := range parts {
				parts[i] = permDAG(rng, rng.Intn(12)+1)
			}
			g, _ = taskgraph.Union("multi", parts...)
		}
		opt := Options{Heuristic: Anneal, Seed: rng.Uint64(), Iterations: 2000}
		if c%3 == 0 {
			g = shrunk(g)
			opt.Iterations = 6000
		}
		if c%4 == 3 {
			opt.Objective = Throughput
		}
		plat := plats[rng.Intn(len(plats))]
		run := func(search func(*Evaluator, *xrand.Rand) ([]int, error)) ([]int, xrand.Rand, SearchObs) {
			ev := NewEvaluator(g, plat)
			ev.Obs = liveSearchObs(obs.NewRegistry())
			r := xrand.New(opt.Seed + 1)
			got, err := search(ev, r)
			if err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
			return append([]int(nil), got...), *r, ev.Obs
		}
		got, gotRng, gotObs := run(func(ev *Evaluator, r *xrand.Rand) ([]int, error) { return ev.anneal(opt, r) })
		want, wantRng, wantObs := run(func(ev *Evaluator, r *xrand.Rand) ([]int, error) { return annealUnbounded(ev, opt, r) })
		if !reflect.DeepEqual(got, want) || gotRng != wantRng {
			t.Fatalf("case %d (%d tasks on %s, objective %d): bounded anneal diverged\ngot  %v\nwant %v", c, len(g.Tasks), plat.Name, opt.Objective, got, want)
		}
		for _, ctr := range []struct {
			name      string
			got, want *obs.Counter
		}{
			{"schedules", gotObs.Schedules, wantObs.Schedules},
			{"cost evals", gotObs.CostEvals, wantObs.CostEvals},
			{"moves", gotObs.AnnealMoves, wantObs.AnnealMoves},
			{"accepts", gotObs.AnnealAccepts, wantObs.AnnealAccepts},
			{"rejects", gotObs.AnnealRejects, wantObs.AnnealRejects},
			{"certified", gotObs.Certified, wantObs.Certified},
		} {
			if ctr.got.Value() != ctr.want.Value() {
				t.Fatalf("case %d: %s %d, unbounded %d", c, ctr.name, ctr.got.Value(), ctr.want.Value())
			}
		}
		g1, g0 := gotObs.TasksScheduled.Value(), wantObs.TasksScheduled.Value()
		if g1 > g0 {
			t.Fatalf("case %d: bounded anneal scheduled %d tasks, unbounded %d", c, g1, g0)
		}
		if g1 < g0 {
			stopped++
		}
		// The temperature starts at the start's cost and falls by 0.995
		// a move; count searches that moved on after it reached 1.
		ev := NewEvaluator(g, plat)
		start := ev.objectiveCost(opt.Objective, func() []int {
			if opt.Objective == Throughput {
				s, _ := ev.throughputMap()
				return s
			}
			s, _ := ev.listMap()
			return s
		}())
		if float64(start)*math.Pow(0.995, float64(gotObs.AnnealMoves.Value())) < 0.5 {
			floor++
		}
	}
	t.Logf("%d cases (%d unions): %d stopped a suffix early, %d annealed at the temperature floor", 240, unions, stopped, floor)
	if stopped < 60 || floor < 10 || unions < 40 {
		t.Fatalf("%d cases stopped a suffix, %d reached the temperature floor, %d unions: the cases do not exercise the bound", stopped, floor, unions)
	}
}

// TestBelowMatchesExp: below(u, x), which calls math.Exp only inside a
// band around -ln u, equals u < math.Exp(-x) on a pinned-seed
// quick.Check whose draws cover u = 0, u just under 1, u from the
// annealer's Float64 grid and from anywhere in (0, 1), x within a few
// ulps of both band edges and of -ln u itself, x far either side, and x
// past where Exp underflows to 0.
func TestBelowMatchesExp(t *testing.T) {
	check := func(bits uint64, pick uint8, ulps int8) bool {
		var u float64
		switch pick % 5 {
		case 0:
			u = 0
		case 1:
			u = math.Nextafter(1, 0) - float64(bits%64)*0x1p-53
		case 2:
			u = float64(bits>>11) / (1 << 53) // xrand.Float64's grid
		case 3:
			u = math.Float64frombits(bits>>2 | 1) // anywhere in (0, 1): exponent below 0x3ff
		default:
			u = math.Ldexp(float64(bits>>11|1)/(1<<53), -int(bits%1100))
		}
		if !(u >= 0 && u < 1) {
			return true
		}
		lo, hi := expBand(u)
		var x float64
		switch pick / 5 % 6 {
		case 0:
			x = lo
		case 1:
			x = hi
		case 2:
			x = -math.Log(u)
		case 3:
			x = float64(bits%1000) / 7
		case 4:
			x = 745 + float64(bits%2000)
		default:
			x = float64(bits%64) * 1e-3
		}
		if math.IsInf(x, 0) {
			x = 800
		}
		for step := ulps % 8; step != 0; {
			if step > 0 {
				x, step = math.Nextafter(x, math.Inf(1)), step-1
			} else {
				x, step = math.Nextafter(x, math.Inf(-1)), step+1
			}
		}
		if got, want := below(u, x), u < math.Exp(-x); got != want {
			t.Logf("below(%v, %v) = %v, u < Exp(-x) = %v (band [%v, %v])", u, x, got, want, lo, hi)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200_000, Rand: rand.New(rand.NewSource(0xe4b))}
	if testing.Short() {
		cfg.MaxCount = 20_000
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	// The named corners once each.
	for _, c := range []struct{ u, x float64 }{
		{0, 0}, {0, 1}, {0, 744}, {0, 746}, {0, math.Inf(1)},
		{math.Nextafter(1, 0), 0}, {math.Nextafter(1, 0), 1e-16}, {math.Nextafter(1, 0), 1e-17},
		{0x1p-53, 36.7}, {0x1p-53, 36.8}, {0.5, math.Ln2}, {0.5, math.Nextafter(math.Ln2, 0)},
	} {
		if got, want := below(c.u, c.x), c.u < math.Exp(-c.x); got != want {
			t.Fatalf("below(%v, %v) = %v, want %v", c.u, c.x, got, want)
		}
	}
}

// TestCostLimitRejects: every cost above costLimit(cur, hi, t) is a
// move below rejects, as the annealer computes x, for draws u on
// xrand.Float64's grid and temperatures from the floor of 1 up.
func TestCostLimitRejects(t *testing.T) {
	rng := xrand.New(0x11)
	for i := 0; i < 100_000; i++ {
		u := rng.Float64()
		if i%50 == 0 {
			u = 0
		}
		tm := math.Max(math.Ldexp(rng.Float64(), int(rng.Intn(60))), 1)
		cur := sim.Time(rng.Int63n(1 << 40))
		_, hi := expBand(u)
		limit := costLimit(cur, hi, tm)
		if limit == sim.Forever {
			continue
		}
		for _, nc := range []sim.Time{limit + 1, limit + 2, limit + sim.Time(rng.Int63n(1<<20)) + 1} {
			if below(u, float64(nc-cur)/tm) {
				t.Fatalf("u %v, t %v: cost %d above limit %d (cur %d) is accepted", u, tm, nc, limit, cur)
			}
		}
	}
}
