package taskgraph

import (
	"testing"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

func diamond() *Graph {
	g := NewGraph("diamond")
	wc := func(c int64) map[platform.PEClass]int64 {
		return map[platform.PEClass]int64{platform.RISC: c, platform.DSP: c / 2}
	}
	a := g.AddTask(&Task{Name: "a", WCET: wc(100)})
	b := g.AddTask(&Task{Name: "b", WCET: wc(200)})
	c := g.AddTask(&Task{Name: "c", WCET: wc(300)})
	d := g.AddTask(&Task{Name: "d", WCET: wc(100)})
	g.Connect(a, b, 64, "")
	g.Connect(a, c, 64, "")
	g.Connect(b, d, 32, "")
	g.Connect(c, d, 32, "")
	return g
}

func TestTopoOrder(t *testing.T) {
	g := diamond()
	order, err := g.View().TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topological violation: %d before %d", e.To, e.From)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := diamond()
	g.Edges = append(g.Edges, Edge{From: 3, To: 0})
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	g := NewGraph("bad")
	g.AddTask(&Task{Name: "x", WCET: map[platform.PEClass]int64{platform.RISC: 1}})
	g.Edges = append(g.Edges, Edge{From: 0, To: 5})
	if err := g.Validate(); err == nil {
		t.Fatal("dangling edge accepted")
	}
	g2 := NewGraph("noWCET")
	g2.AddTask(&Task{Name: "y", WCET: map[platform.PEClass]int64{}})
	if err := g2.Validate(); err == nil {
		t.Fatal("WCET-less task accepted")
	}
}

func TestTotalCycles(t *testing.T) {
	g := diamond()
	if tot := g.TotalCycles(platform.RISC); tot != 700 {
		t.Fatalf("total %d, want 700", tot)
	}
	// DSP halves everything.
	if tot := g.TotalCycles(platform.DSP); tot != 350 {
		t.Fatalf("DSP total %d, want 350", tot)
	}
}

func TestCanRunOn(t *testing.T) {
	task := &Task{Name: "dsp-only", WCET: map[platform.PEClass]int64{platform.DSP: 10}}
	if task.CanRunOn(platform.RISC) {
		t.Fatal("task should not run on RISC")
	}
	if task.CyclesOn(platform.RISC) < 1<<40 {
		t.Fatal("impossible class should cost astronomically")
	}
}

func TestConcurrencyWorstCase(t *testing.T) {
	cg := NewConcurrencyGraph()
	mk := func(name string, cycles int64, period sim.Time) *App {
		g := NewGraph(name)
		g.AddTask(&Task{Name: name, WCET: map[platform.PEClass]int64{platform.RISC: cycles}})
		return cg.AddApp(&App{Name: name, Graph: g, Period: period})
	}
	radio := mk("radio", 1_000_000, 10*sim.Millisecond)     // 100 Mcyc/s
	video := mk("video", 4_000_000, 33*sim.Millisecond)     // ~121 Mcyc/s
	ui := mk("ui", 200_000, 50*sim.Millisecond)             // 4 Mcyc/s
	browser := mk("browser", 3_000_000, 20*sim.Millisecond) // 150 Mcyc/s

	// Radio runs with everything; video and browser never overlap.
	cg.MarkConcurrent(radio, video)
	cg.MarkConcurrent(radio, ui)
	cg.MarkConcurrent(radio, browser)
	cg.MarkConcurrent(video, ui)
	cg.MarkConcurrent(browser, ui)

	cliques := cg.MaximalCliques()
	// Expect {radio,video,ui} and {radio,browser,ui}.
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", cliques)
	}
	load, clique := cg.WorstCaseLoad(platform.RISC)
	// Worst clique is radio+browser+ui = 100+150+4 = 254 Mcyc/s.
	want := radio.Load(platform.RISC) + browser.Load(platform.RISC) + ui.Load(platform.RISC)
	if load != want {
		t.Fatalf("worst load %g, want %g (clique %v)", load, want, clique)
	}
	if len(clique) != 3 {
		t.Fatalf("worst clique %v", clique)
	}
}

func TestSingleAppClique(t *testing.T) {
	cg := NewConcurrencyGraph()
	g := NewGraph("solo")
	g.AddTask(&Task{Name: "t", WCET: map[platform.PEClass]int64{platform.RISC: 100}})
	cg.AddApp(&App{Name: "solo", Graph: g, Period: sim.Millisecond})
	cliques := cg.MaximalCliques()
	if len(cliques) != 1 || len(cliques[0]) != 1 {
		t.Fatalf("cliques = %v", cliques)
	}
}

func TestInBytesAggregates(t *testing.T) {
	g := NewGraph("multi")
	a := g.AddTask(&Task{Name: "a", WCET: map[platform.PEClass]int64{platform.RISC: 1}})
	b := g.AddTask(&Task{Name: "b", WCET: map[platform.PEClass]int64{platform.RISC: 1}})
	g.Connect(a, b, 100, "x")
	g.Connect(a, b, 50, "y")
	if got := g.View().Preds(b.ID); len(got) != 1 || got[0].Task != a.ID || got[0].Bytes != 150 {
		t.Fatalf("Preds(b) = %+v, want one record from a with 150 bytes", got)
	}
}

// TestPredBaseNumbersRecords: PredBase numbers the aggregated Preds
// records densely in task order — each task's list starts where the
// previous one ended, and PredBase(n) is the record count (parallel
// edges merged into one record).
func TestPredBaseNumbersRecords(t *testing.T) {
	g := diamond()
	g.Connect(g.Tasks[1], g.Tasks[3], 8, "parallel")
	v := g.View()
	next := 0
	for id := range g.Tasks {
		if got := v.PredBase(id); got != next {
			t.Fatalf("PredBase(%d) = %d, want %d", id, got, next)
		}
		next += len(v.Preds(id))
	}
	if got := v.PredBase(len(g.Tasks)); got != next || next != 4 {
		t.Fatalf("PredBase(n) = %d, want %d records (4)", got, next)
	}
}
