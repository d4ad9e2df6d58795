package mapping

import (
	"reflect"
	"testing"
	"testing/quick"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
	"mpsockit/internal/xrand"
)

// Incremental-scoring tests: a makespan anneal move reschedules only
// the suffix of the topological order from the moved task on
// (scheduleFrom) against the committed finish times, reading edge
// latencies from the tables Bind fills. Every cost and slot it
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

// checkMoves commits cur's full schedule on ev, then applies each move
// word: its low bits pick the task, the middle bits the target among
// the task's capable cores, and the top bit rejects the move. After
// every move the suffix makespan and slots must equal evaluateRef's,
// and after every accept or reject the committed finish times must
// equal evaluateRef's for the assignment kept.
func checkMoves(tb testing.TB, ev *Evaluator, cur []int, moves []uint32) bool {
	tb.Helper()
	g, plat := ev.g, ev.plat
	committed := func() bool {
		_, slots, _ := evaluateRef(g, plat, cur)
		if slots == nil {
			tb.Logf("%s on %s: reference rejected assignment %v", g.Name, plat.Name, cur)
			return false
		}
		for _, s := range slots {
			if ev.finish[s.Task] != s.Finish {
				tb.Logf("%s on %s: committed finish of task %d is %v, want %v", g.Name, plat.Name, s.Task, ev.finish[s.Task], s.Finish)
				return false
			}
		}
		return true
	}
	if _, _, err := ev.schedule(cur, false); err != nil || !committed() {
		return false
	}
	pos := ev.topoPositions()
	for _, m := range moves {
		tIdx := int(m % uint32(len(cur)))
		cands := ev.Capable(tIdx)
		old := cur[tIdx]
		cur[tIdx] = cands[int(m>>8&0xffff)%len(cands)]
		mk, slots, err := ev.scheduleFrom(cur, pos[tIdx], true)
		wantMk, wantSlots, _ := evaluateRef(g, plat, cur)
		if err != nil || mk != wantMk || !reflect.DeepEqual(slots, wantSlots[pos[tIdx]:]) {
			tb.Logf("%s on %s: move task %d %d->%d: makespan %v, want %v (err %v)",
				g.Name, plat.Name, tIdx, old, cur[tIdx], mk, wantMk, err)
			return false
		}
		if m>>31 != 0 {
			cur[tIdx] = old
			ev.restoreFrom(pos[tIdx])
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
