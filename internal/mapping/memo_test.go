package mapping

import (
	"reflect"
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

// TestMapKeepsResultOnEqualBind: Map returns its last assignment
// unsearched exactly when the graph, every bound table and the options
// repeat — on a separately built but equal platform too, where the
// kept assignment names the newly bound platform — and searches again
// when any of them changes, also where every table binds equal but the
// graph's edges or a core's clock differ. Every result equals the
// package-level Map of the same inputs.
func TestMapKeepsResultOnEqualBind(t *testing.T) {
	wireless := func() *platform.Platform { return wirelessPlat() }
	slowed := func() *platform.Platform {
		p := wirelessPlat()
		for _, c := range p.Cores {
			if err := c.SetLevel(len(c.Levels) - 1); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	bus := func() *platform.Platform {
		k := sim.NewKernel()
		return platform.NewWirelessTerminal(k, noc.DefaultBus(k))
	}
	// A bandwidth memory model adds nothing to the core-pair term, so
	// halving its bandwidth changes only the per-edge payload latencies.
	bw := func(div int64) func() *platform.Platform {
		return func() *platform.Platform {
			p := wirelessPlat()
			access, bpns := p.MemTiming()
			p.Mem = mem.NewBWModel(access, bpns/div)
			return p
		}
	}
	// Two homogeneous clocks with one cycle period: every table binds
	// equal, only the list rank's mean compute differs.
	homog := func(hz int64) func() *platform.Platform {
		return func() *platform.Platform {
			k := sim.NewKernel()
			return platform.NewHomogeneous(k, 4, hz, noc.MeshFor(k, 4))
		}
	}
	// Three tasks, two 256-byte edges, as a chain and as a fan-in:
	// equal tables, other schedules.
	three := func(fanIn bool) *taskgraph.Graph {
		g := taskgraph.NewGraph("three")
		wc := map[platform.PEClass]int64{platform.RISC: 40_000}
		var ts [3]*taskgraph.Task
		for i := range ts {
			ts[i] = g.AddTask(&taskgraph.Task{Name: "t", WCET: wc})
		}
		if fanIn {
			g.Connect(ts[0], ts[2], 256, "")
		} else {
			g.Connect(ts[0], ts[1], 256, "")
		}
		g.Connect(ts[1], ts[2], 256, "")
		return g
	}
	g, g2, chain, fanIn := forkJoin(6, 90_000), chainGraph(7, 60_000, 512), three(false), three(true)
	anneal := Options{Heuristic: Anneal, Seed: 3}
	steps := []struct {
		name   string
		g      *taskgraph.Graph
		plat   func() *platform.Platform
		opt    Options
		search bool
	}{
		{"first", g, wireless, anneal, true},
		{"equal platform", g, wireless, anneal, false},
		{"seed", g, wireless, Options{Heuristic: Anneal, Seed: 4}, true},
		{"back to seed 3", g, wireless, anneal, true},
		{"iterations", g, wireless, Options{Heuristic: Anneal, Seed: 3, Iterations: 500}, true},
		{"objective", g, wireless, Options{Heuristic: Anneal, Seed: 3, Objective: Throughput}, true},
		{"heuristic", g, wireless, Options{Heuristic: List}, true},
		{"list again", g, wireless, Options{Heuristic: List}, false},
		{"dvfs", g, slowed, Options{Heuristic: List}, true},
		{"fabric", g, bus, Options{Heuristic: List}, true},
		{"graph", g2, bus, Options{Heuristic: List}, true},
		{"graph again", g2, bus, Options{Heuristic: List}, false},
		{"chain", chain, homog(999_000_000), Options{Heuristic: List}, true},
		{"same tables, other edges", fanIn, homog(999_000_000), Options{Heuristic: List}, true},
		{"clock within one period", fanIn, homog(998_500_000), Options{Heuristic: List}, true},
		{"clock again", fanIn, homog(998_500_000), Options{Heuristic: List}, false},
		{"memory", g, bw(1), Options{Heuristic: List}, true},
		{"payload latency only", g, bw(2), Options{Heuristic: List}, true},
		{"payload again", g, bw(2), Options{Heuristic: List}, false},
	}
	ev := Evaluator{Obs: liveSearchObs(obs.NewRegistry())}
	for _, st := range steps {
		plat := st.plat()
		want, err := Map(st.g, plat, st.opt)
		if err != nil {
			t.Fatal(err)
		}
		before := ev.Obs.Schedules.Value()
		ev.Bind(st.g, plat)
		got, err := ev.Map(st.opt)
		if err != nil {
			t.Fatal(err)
		}
		if searched := ev.Obs.Schedules.Value() != before; searched != st.search {
			t.Fatalf("%s: searched = %v, want %v", st.name, searched, st.search)
		}
		if !reflect.DeepEqual(got, want) || got.Platform != plat {
			t.Fatalf("%s: Evaluator.Map %+v, package Map %+v", st.name, got, want)
		}
	}
	// A Map without a Bind in between repeats the last result.
	before := ev.Obs.Schedules.Value()
	if _, err := ev.Map(Options{Heuristic: List}); err != nil || ev.Obs.Schedules.Value() != before {
		t.Fatalf("repeated Map searched again (err %v)", err)
	}
}
