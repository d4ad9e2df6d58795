package mapping

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

func wirelessPlat() *platform.Platform {
	k := sim.NewKernel()
	return platform.NewWirelessTerminal(k, noc.MeshFor(k, 6))
}

func chainGraph(n int, cycles int64, bytes int) *taskgraph.Graph {
	g := taskgraph.NewGraph("chain")
	var prev *taskgraph.Task
	for i := 0; i < n; i++ {
		t := g.AddTask(&taskgraph.Task{
			Name: "t",
			WCET: map[platform.PEClass]int64{
				platform.RISC: cycles, platform.DSP: cycles / 2, platform.VLIW: cycles,
			},
		})
		if prev != nil {
			g.Connect(prev, t, bytes, "")
		}
		prev = t
	}
	return g
}

func forkJoin(width int, cycles int64) *taskgraph.Graph {
	g := taskgraph.NewGraph("forkjoin")
	wc := map[platform.PEClass]int64{platform.RISC: cycles, platform.DSP: cycles, platform.VLIW: cycles}
	src := g.AddTask(&taskgraph.Task{Name: "src", WCET: wc})
	sink := g.AddTask(&taskgraph.Task{Name: "sink", WCET: wc})
	for i := 0; i < width; i++ {
		mid := g.AddTask(&taskgraph.Task{Name: "mid", WCET: wc})
		g.Connect(src, mid, 128, "")
		g.Connect(mid, sink, 128, "")
	}
	return g
}

func TestListMapValidSchedule(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(4, 100_000)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v\n%s", err, a.Gantt())
	}
	if a.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestForkJoinUsesParallelism(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(4, 1_000_000)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, pe := range a.TaskPE {
		used[pe] = true
	}
	if len(used) < 3 {
		t.Fatalf("fork-join mapped onto %d cores; parallelism wasted\n%s", len(used), a.Gantt())
	}
	// Must beat any single-core serialization.
	serial := sim.Forever
	for _, c := range plat.Cores {
		if !g.Tasks[0].CanRunOn(c.Class) {
			continue
		}
		var total sim.Time
		ok := true
		for _, task := range g.Tasks {
			if !task.CanRunOn(c.Class) {
				ok = false
				break
			}
			total += c.Cycles(task.CyclesOn(c.Class))
		}
		if ok && total < serial {
			serial = total
		}
	}
	if a.Makespan >= serial {
		t.Fatalf("parallel makespan %v not better than serial %v", a.Makespan, serial)
	}
}

func TestPreferredPEHonored(t *testing.T) {
	plat := wirelessPlat()
	g := taskgraph.NewGraph("pref")
	task := g.AddTask(&taskgraph.Task{
		Name:        "filter",
		WCET:        map[platform.PEClass]int64{platform.RISC: 1000, platform.DSP: 900},
		PreferredPE: platform.DSP, HasPref: true,
	})
	_ = task
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	if plat.Core(a.TaskPE[0]).Class != platform.DSP {
		t.Fatalf("preferred class ignored: mapped to %v", plat.Core(a.TaskPE[0]).Class)
	}
}

func TestHeterogeneousAffinity(t *testing.T) {
	// A DSP-friendly chain should land mostly on DSPs under list
	// mapping even without explicit preference.
	plat := wirelessPlat()
	g := chainGraph(4, 2_000_000, 64)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	dsp := 0
	for _, pe := range a.TaskPE {
		if plat.Core(pe).Class == platform.DSP {
			dsp++
		}
	}
	if dsp < 2 {
		t.Fatalf("only %d/4 chain tasks on DSPs\n%s", dsp, a.Gantt())
	}
}

func TestAnnealNotWorseThanList(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(6, 500_000)
	la, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	aa, err := Map(g, plat, Options{Heuristic: Anneal, Seed: 42, Iterations: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if aa.Makespan > la.Makespan {
		t.Fatalf("annealing regressed: %v vs %v", aa.Makespan, la.Makespan)
	}
	if err := aa.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(5, 300_000)
	a1, _ := Map(g, plat, Options{Heuristic: Anneal, Seed: 7, Iterations: 500})
	a2, _ := Map(g, plat, Options{Heuristic: Anneal, Seed: 7, Iterations: 500})
	for i := range a1.TaskPE {
		if a1.TaskPE[i] != a2.TaskPE[i] {
			t.Fatal("annealing not deterministic under fixed seed")
		}
	}
}

func TestExhaustiveOptimalOnSmall(t *testing.T) {
	plat := wirelessPlat()
	g := chainGraph(3, 500_000, 32)
	ex, err := Map(g, plat, Options{Heuristic: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	li, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Makespan > li.Makespan {
		t.Fatalf("exhaustive (%v) worse than list (%v)", ex.Makespan, li.Makespan)
	}
}

func TestExhaustiveSpaceGuard(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(12, 1000) // 14 tasks over 6 cores: 6^14 >> guard
	if _, err := Map(g, plat, Options{Heuristic: Exhaustive}); err == nil {
		t.Fatal("oversized exhaustive search accepted")
	}
}

func TestMapRejectsImpossibleTask(t *testing.T) {
	plat := wirelessPlat()
	g := taskgraph.NewGraph("imp")
	g.AddTask(&taskgraph.Task{Name: "none", WCET: map[platform.PEClass]int64{platform.PEClass(99): 1}})
	if _, err := Map(g, plat, Options{Heuristic: List}); err == nil {
		t.Fatal("unmappable task accepted")
	}
}

func TestExecuteMatchesScheduleShape(t *testing.T) {
	plat := wirelessPlat()
	g := chainGraph(4, 500_000, 256)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Execute(a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Makespan <= 0 {
		t.Fatal("no measured makespan")
	}
	// The event-driven execution includes real contention, so it can
	// differ from the estimate, but not wildly for a plain chain.
	ratio := float64(stats.Makespan) / float64(a.Makespan)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("measured %v vs estimated %v (ratio %g)", stats.Makespan, a.Makespan, ratio)
	}
	if stats.BusyTotal() <= 0 || stats.BusyTotal() > stats.Makespan*sim.Time(len(plat.Cores)) {
		t.Fatalf("implausible busy total %v for makespan %v", stats.BusyTotal(), stats.Makespan)
	}
}

func TestExecuteForkJoinCompletesAll(t *testing.T) {
	plat := wirelessPlat()
	g := forkJoin(6, 200_000)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(a); err != nil {
		t.Fatal(err)
	}
}

func TestGanttRendering(t *testing.T) {
	plat := wirelessPlat()
	g := chainGraph(2, 100_000, 8)
	a, _ := Map(g, plat, Options{Heuristic: List})
	gantt := a.Gantt()
	if !strings.Contains(gantt, "makespan") || !strings.Contains(gantt, "[") {
		t.Fatalf("gantt unreadable:\n%s", gantt)
	}
}

func TestFeasibleWithin(t *testing.T) {
	plat := wirelessPlat()
	g := chainGraph(2, 100_000, 8)
	a, _ := Map(g, plat, Options{Heuristic: List})
	var last sim.Time
	for _, s := range a.Schedule {
		last = max(last, s.Finish)
	}
	if last != a.Makespan {
		t.Fatalf("last task finishes at %v, makespan %v", last, a.Makespan)
	}
}

// TestEvaluatorMapResultAliasing: Evaluator.Map's assignment is
// evaluator scratch, valid until the next Map. Executed before that
// next Map, it yields the stats of a caller-owned assignment, and the
// next Map — a different graph, another heuristic — leaves those
// stats alone. Each Map equals the package-level Map, whose results
// never share storage.
func TestEvaluatorMapResultAliasing(t *testing.T) {
	plat := wirelessPlat()
	g1, g2 := forkJoin(5, 80_000), chainGraph(7, 60_000, 512)
	opt1 := Options{Heuristic: Anneal, Seed: 3}
	opt2 := Options{Heuristic: List, Objective: Throughput}
	want1, err := Map(g1, plat, opt1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Map(g2, plat, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if &want1.TaskPE[0] == &want2.TaskPE[0] || &want1.Schedule[0] == &want2.Schedule[0] {
		t.Fatal("package-level Map results share storage")
	}
	wantStats, err := Execute(want1)
	if err != nil {
		t.Fatal(err)
	}
	plat.Kernel.Reset()
	plat.Fabric.Reset()

	ev := NewEvaluator(g1, plat)
	a1, err := ev.Map(opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, want1) {
		t.Fatalf("Evaluator.Map %+v, package Map %+v", a1, want1)
	}
	stats, err := Execute(a1)
	if err != nil {
		t.Fatal(err)
	}
	kept := stats
	kept.PEBusy = slices.Clone(stats.PEBusy)
	if !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("executing Evaluator.Map's result: %+v, want %+v", stats, wantStats)
	}

	ev.Bind(g2, plat)
	a2, err := ev.Map(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a2, want2) {
		t.Fatalf("second Evaluator.Map %+v, package Map %+v", a2, want2)
	}
	if !reflect.DeepEqual(stats, kept) {
		t.Fatalf("the second Map changed the first execution's stats: %+v, was %+v", stats, kept)
	}
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
