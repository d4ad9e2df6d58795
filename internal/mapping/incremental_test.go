package mapping

import (
	"reflect"
	"testing"
	"testing/quick"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
	"mpsockit/internal/xrand"
)

// Incremental-scoring tests: a makespan anneal move reschedules only
// the suffix of the topological order from the moved task on (the
// schedule kernel, suffix) against the committed finish times, reading
// edge latencies from the tables Bind fills. Every cost and slot it
// produces must equal a fresh evaluateRef of the same assignment, and
// a rejected move must leave the committed schedule exactly as it was.

// incPlatforms crosses preset, homogeneous and mixed core sets with
// mesh and bus fabrics and the ideal, bank and bw memory models.
func incPlatforms(tb testing.TB) []*platform.Platform {
	tb.Helper()
	mix, err := platform.ParseMix("2xrisc+4xdsp+1xvliw")
	if err != nil {
		tb.Fatal(err)
	}
	shapes := []struct {
		cores int
		build func(k *sim.Kernel, f platform.Fabric) *platform.Platform
	}{
		{6, func(k *sim.Kernel, f platform.Fabric) *platform.Platform { return platform.NewWirelessTerminal(k, f) }},
		{4, func(k *sim.Kernel, f platform.Fabric) *platform.Platform {
			return platform.NewHomogeneous(k, 4, 1_000_000_000, f)
		}},
		{7, func(k *sim.Kernel, f platform.Fabric) *platform.Platform { return platform.NewMix(k, mix, f) }},
	}
	mems := []string{"ideal", "bank:4x2", "bw:8"}
	var plats []*platform.Platform
	for _, sh := range shapes {
		for _, bus := range []bool{false, true} {
			for _, tok := range mems {
				spec, err := mem.ParseSpec(tok)
				if err != nil {
					tb.Fatal(err)
				}
				k := sim.NewKernel()
				var f platform.Fabric = noc.MeshFor(k, sh.cores)
				if bus {
					f = noc.DefaultBus(k)
				}
				p := sh.build(k, f)
				access, bpns := p.MemTiming()
				p.Mem = spec.Build(access, bpns)
				plats = append(plats, p)
			}
		}
	}
	return plats
}

// movesDAG is randomDAG widened to 2..11 tasks with the edge cases the
// latency tables must price like the per-edge calls: every third edge
// carries zero bytes, and every fifth gets a parallel twin whose bytes
// the aggregated Preds record sums.
func movesDAG(tasks []uint8, edges []uint16) *taskgraph.Graph {
	n := len(tasks)%10 + 2
	g := taskgraph.NewGraph("moves")
	for i := 0; i < n; i++ {
		cyc := int64(tasks[i%len(tasks)])*1000 + 1000
		g.AddTask(&taskgraph.Task{
			Name: "t",
			WCET: map[platform.PEClass]int64{
				platform.RISC: cyc,
				platform.DSP:  cyc/2 + 1,
				platform.VLIW: cyc + 500,
			},
		})
	}
	for i, e := range edges {
		from := int(e>>8) % n
		to := int(e&0xff) % n
		if from >= to {
			continue
		}
		bytes := int(e%512) + 1
		if i%3 == 0 {
			bytes = 0
		}
		g.Connect(g.Tasks[from], g.Tasks[to], bytes, "")
		if i%5 == 0 {
			g.Connect(g.Tasks[from], g.Tasks[to], bytes+64, "")
		}
	}
	return g
}

// kernelSlots reads the kernel's current schedule as the slot list
// schedule(…, true) would return: one slot per position, in
// topological order.
func kernelSlots(ev *Evaluator) []Slot {
	nPE := len(ev.plat.Cores)
	slots := make([]Slot, len(ev.order))
	for q, id := range ev.order {
		pe, end := int(ev.peq[q]), ev.fq[q]
		slots[q] = Slot{Task: id, PE: pe, Start: end - ev.durs[id*nPE+pe], Finish: end}
	}
	return slots
}

// checkMoves commits cur's full schedule on ev, then applies each move
// word: its low bits pick the task, the middle bits the target among
// the task's capable cores, and the top bit rejects the move. After
// every move the suffix makespan and the kernel's slots must equal
// evaluateRef's, and after every accept or reject the kernel's
// committed state (cores and finish times by position) must equal
// evaluateRef's for the assignment kept.
func checkMoves(tb testing.TB, ev *Evaluator, cur []int, moves []uint32) bool {
	tb.Helper()
	g, plat := ev.g, ev.plat
	committed := func() bool {
		_, want, _ := evaluateRef(g, plat, cur)
		if want == nil {
			tb.Logf("%s on %s: reference rejected assignment %v", g.Name, plat.Name, cur)
			return false
		}
		if got := kernelSlots(ev); !reflect.DeepEqual(got, want) {
			tb.Logf("%s on %s: committed schedule %v, want %v", g.Name, plat.Name, got, want)
			return false
		}
		return true
	}
	if _, _, err := ev.schedule(cur, false); err != nil || !committed() {
		return false
	}
	for _, m := range moves {
		tIdx := int(m % uint32(len(cur)))
		q := int(ev.pos[tIdx])
		cands := ev.Capable(tIdx)
		old := cur[tIdx]
		cur[tIdx] = cands[int(m>>8&0xffff)%len(cands)]
		ev.peq[q] = int32(cur[tIdx])
		mk, _ := ev.suffix(q, sim.Forever)
		wantMk, wantSlots, _ := evaluateRef(g, plat, cur)
		if mk != wantMk || !reflect.DeepEqual(kernelSlots(ev), wantSlots) {
			tb.Logf("%s on %s: move task %d %d->%d: makespan %v, want %v",
				g.Name, plat.Name, tIdx, old, cur[tIdx], mk, wantMk)
			return false
		}
		if m>>31 != 0 {
			cur[tIdx] = old
			ev.peq[q] = int32(old)
			ev.restore(q, len(ev.order))
		}
		if !committed() {
			return false
		}
	}
	return true
}

// randomAssign draws a capable core per task.
func randomAssign(ev *Evaluator, rng *xrand.Rand) ([]int, bool) {
	assign := make([]int, len(ev.g.Tasks))
	for id := range assign {
		cands := ev.Capable(id)
		if len(cands) == 0 {
			return nil, false
		}
		assign[id] = cands[rng.Intn(len(cands))]
	}
	return assign, true
}

// TestIncrementalScheduleProperty: random move/accept/reject sequences
// on random graphs across the platform × fabric × memory cross.
func TestIncrementalScheduleProperty(t *testing.T) {
	plats := incPlatforms(t)
	f := func(tasks []uint8, edges []uint16, moves []uint32, seed uint64) bool {
		if len(tasks) == 0 {
			return true
		}
		if len(edges) > 24 {
			edges = edges[:24]
		}
		g := movesDAG(tasks, edges)
		if g.Validate() != nil {
			return true
		}
		ev := NewEvaluator(g, plats[int(seed%uint64(len(plats)))])
		cur, ok := randomAssign(ev, xrand.New(seed))
		if !ok {
			return true
		}
		return checkMoves(t, ev, cur, moves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRebind: one Evaluator, as dse.EvalContext and the
// perfbench replayer keep it, bound in turn to a large graph and
// platform, smaller ones, and a platform whose DVFS levels changed
// since its last bind. No position or latency-table entry may leak
// from an earlier binding: each binding's moves and anneal must match
// the references, and a warm Bind must allocate nothing.
func TestIncrementalRebind(t *testing.T) {
	k := sim.NewKernel()
	homog16 := platform.NewHomogeneous(k, 16, 1_000_000_000, noc.MeshFor(k, 16))
	plats := incPlatforms(t)
	dvfs := wirelessPlat()
	access, bpns := dvfs.MemTiming()
	dvfs.Mem = mem.NewBWModel(access, bpns)
	steps := []struct {
		g     *taskgraph.Graph
		plat  *platform.Platform
		level int // DVFS level pinned on every core before binding; -1 keeps it
	}{
		{workload.SyntheticTaskGraph(64, 5), homog16, -1},
		{workload.JPEGTaskGraph(), plats[1], -1},           // wireless, mesh, bank
		{workload.SyntheticTaskGraph(16, 3), plats[9], -1}, // homog4, bus, ideal
		{workload.CarRadioTaskGraph(), plats[14], -1},      // mix, mesh, bw
		{workload.H264TaskGraph(), dvfs, -1},
		{workload.H264TaskGraph(), dvfs, 0},
		{workload.H264TaskGraph(), dvfs, 2},
	}
	var ev Evaluator
	rng := xrand.New(11)
	for i, st := range steps {
		if st.level >= 0 {
			for _, c := range st.plat.Cores {
				if err := c.SetLevel(min(st.level, len(c.Levels)-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ev.Bind(st.g, st.plat)
		cur, err := ev.listMap()
		if err != nil {
			t.Fatal(err)
		}
		moves := make([]uint32, 400)
		for j := range moves {
			moves[j] = uint32(rng.Uint64())
		}
		if !checkMoves(t, &ev, cur, moves) {
			t.Fatalf("step %d (%s on %s): incremental schedule diverged", i, st.g.Name, st.plat.Name)
		}
		opt := Options{Heuristic: Anneal, Seed: uint64(i), Iterations: 500}
		got, err := ev.annealMap(opt)
		if err != nil {
			t.Fatal(err)
		}
		start, _ := ev.listMap()
		if want := annealMapRef(st.g, st.plat, opt, start); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s on %s): anneal diverged\ngot  %v\nwant %v", i, st.g.Name, st.plat.Name, got, want)
		}
	}
	if testing.Short() {
		return
	}
	last := steps[len(steps)-1]
	if n := testing.AllocsPerRun(20, func() { ev.Bind(steps[0].g, steps[0].plat); ev.Bind(last.g, last.plat) }); n != 0 {
		t.Fatalf("warm Bind allocates %.1f allocs/op, want 0", n)
	}
}

// permDAG draws a DAG of n tasks whose edges run forward in a random
// permutation of the task IDs, so topological positions and task IDs
// disagree (movesDAG's edges run forward in ID order, where they
// coincide). Every third edge carries zero bytes, every fifth gets a
// parallel twin, and every fourth task prefers the DSP class.
func permDAG(rng *xrand.Rand, n int) *taskgraph.Graph {
	g := taskgraph.NewGraph("perm")
	for i := 0; i < n; i++ {
		cyc := rng.Range(1, 256) * 1000
		g.AddTask(&taskgraph.Task{
			Name: "t",
			WCET: map[platform.PEClass]int64{
				platform.RISC: cyc,
				platform.DSP:  cyc/2 + 1,
				platform.VLIW: cyc + 500,
			},
			PreferredPE: platform.DSP,
			HasPref:     i%4 == 3,
		})
	}
	perm := rng.Perm(n)
	for i, m := 0, rng.Intn(2*n+1); i < m; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		from, to := g.Tasks[perm[min(a, b)]], g.Tasks[perm[max(a, b)]]
		bytes := rng.Intn(4096) + 1
		if i%3 == 0 {
			bytes = 0
		}
		g.Connect(from, to, bytes, "")
		if i%5 == 0 {
			g.Connect(from, to, bytes+64, "")
		}
	}
	return g
}

// TestKernelMatchesOracle: the position-indexed schedule kernel against
// evaluateRef on 400 pinned-seed cases. Each case is one permDAG or a
// multi-app union of two or three, on a platform of the preset ×
// fabric × memory cross (mesh and bus; ideal, bank and bw memory),
// with a random capable assignment and 60 random moves, each accepted
// or rejected. One Evaluator is rebound for every case, as a sweep
// worker keeps it, so no table or kernel state may leak between
// bindings.
func TestKernelMatchesOracle(t *testing.T) {
	plats := incPlatforms(t)
	rng := xrand.New(0x5eed)
	var ev Evaluator
	permuted := 0
	for c := 0; c < 400; c++ {
		var g *taskgraph.Graph
		if apps := rng.Intn(4); apps < 2 {
			g = permDAG(rng, rng.Intn(24)+1)
		} else {
			parts := make([]*taskgraph.Graph, apps)
			for i := range parts {
				parts[i] = permDAG(rng, rng.Intn(12)+1)
			}
			g, _ = taskgraph.Union("multi", parts...)
		}
		ev.Bind(g, plats[rng.Intn(len(plats))])
		for q, id := range ev.order {
			if q != id {
				permuted++
				break
			}
		}
		cur, ok := randomAssign(&ev, rng)
		if !ok {
			t.Fatalf("case %d: a task has no capable core", c)
		}
		moves := make([]uint32, 60)
		for i := range moves {
			moves[i] = uint32(rng.Uint64())
		}
		if !checkMoves(t, &ev, cur, moves) {
			t.Fatalf("case %d (%d tasks on %s): kernel diverged from evaluateRef", c, len(g.Tasks), ev.plat.Name)
		}
	}
	if permuted < 200 {
		t.Fatalf("only %d of 400 cases have a topological order other than ID order", permuted)
	}
}

// TestScheduleRefusesIncapableCore: a full schedule checks every
// task's core before the kernel runs, refusing the first incapable one
// in topological order with the error text and counts of a schedule
// that stopped there, and leaves the evaluator able to schedule the
// next assignment exactly.
func TestScheduleRefusesIncapableCore(t *testing.T) {
	mix, err := platform.ParseMix("2xrisc+2xdsp")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	plat := platform.NewMix(k, mix, noc.MeshFor(k, 4))
	g := taskgraph.NewGraph("refuse")
	risc := map[platform.PEClass]int64{platform.RISC: 1000}
	a := g.AddTask(&taskgraph.Task{Name: "a", WCET: risc})
	b := g.AddTask(&taskgraph.Task{Name: "b", WCET: map[platform.PEClass]int64{platform.DSP: 1000}})
	c := g.AddTask(&taskgraph.Task{Name: "c", WCET: risc})
	g.Connect(c, a, 64, "") // topological order c, a, b: b sits at position 2
	g.Connect(a, b, 64, "")
	ev := Evaluator{Obs: liveSearchObs(obs.NewRegistry())}
	ev.Bind(g, plat)
	if _, _, err := ev.schedule([]int{0, 1, 1}, true); err == nil || err.Error() != `mapping: task "b" cannot run on core 1 (RISC)` {
		t.Fatalf("schedule error %v", err)
	}
	if s, n := ev.Obs.Schedules.Value(), ev.Obs.TasksScheduled.Value(); s != 1 || n != 2 {
		t.Fatalf("refused schedule counted %d schedules, %d tasks; want 1, 2", s, n)
	}
	assign := []int{0, 2, 1}
	mk, slots, err := ev.schedule(assign, true)
	wantMk, wantSlots, _ := evaluateRef(g, plat, assign)
	if err != nil || mk != wantMk || !reflect.DeepEqual(slots, wantSlots) {
		t.Fatalf("schedule after a refusal: %v %v (err %v), want %v %v", mk, slots, err, wantMk, wantSlots)
	}
}
