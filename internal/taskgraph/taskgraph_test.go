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
	order, err := g.TopoOrder()
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

func TestCriticalPath(t *testing.T) {
	g := diamond()
	// a -> c -> d = 100+300+100 = 500 on RISC.
	if cp := g.CriticalPathCycles(platform.RISC); cp != 500 {
		t.Fatalf("critical path %d, want 500", cp)
	}
	if tot := g.TotalCycles(platform.RISC); tot != 700 {
		t.Fatalf("total %d, want 700", tot)
	}
	// DSP halves everything.
	if cp := g.CriticalPathCycles(platform.DSP); cp != 250 {
		t.Fatalf("DSP critical path %d, want 250", cp)
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
	if got := g.InBytes(a.ID, b.ID); got != 150 {
		t.Fatalf("InBytes = %d", got)
	}
}
