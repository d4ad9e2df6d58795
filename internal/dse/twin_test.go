package dse

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"mpsockit/internal/obs"
)

// twinMixedSpec crosses the mapping memo with everything a twin group
// meets: a multi-app scenario, contended memory, a custom mix, pipe
// points between the twins, and cal probes that rebind the evaluator.
const twinMixedSpec = "plat=homog4,2xrisc+1xdsp;mem=ideal,bank:4x2;wl=jpeg,multi:jpeg+synth8,jobs8;" +
	"heur=list,anneal;fid=mvp,pipe4,vp16,cal:2"

// TestTwinSeeds: the mvp, vp and cal points of a (platform, workload,
// heuristic) group take the point seed of the group's first non-pipe
// fidelity, whatever the fidelity order; pipe points keep their own,
// and every cal probe names its sibling's seed.
func TestTwinSeeds(t *testing.T) {
	const seed = 9
	points := expandSweep(t, "plat=homog4;wl=jpeg,jobs4;heur=list,anneal;fid=pipe4,vp16,mvp,cal:2", seed)
	bySeed := map[uint64]Point{}
	for _, p := range points {
		if _, ok := bySeed[p.Seed]; !ok {
			bySeed[p.Seed] = p
		}
	}
	twins := 0
	for _, p := range points {
		switch p.Fidelity {
		case "pipe", "rtos":
			if want := seedFor(seed, "point", p.ID); p.Seed != want {
				t.Fatalf("%s point %d seed %d, want its own %d", p.Fidelity, p.ID, p.Seed, want)
			}
			continue
		}
		first := bySeed[p.Seed]
		if first.Fidelity != "vp" || first.Heuristic != p.Heuristic || first.Workload != p.Workload ||
			first.Seed != seedFor(seed, "point", first.ID) {
			t.Fatalf("%s point %d shares seed %d with %s point %d, want its group's vp point",
				p.Fidelity, p.ID, p.Seed, first.Fidelity, first.ID)
		}
		if p.ID != first.ID {
			twins++
		}
		for _, pr := range p.CalProbes {
			if sib := bySeed[pr.Seed]; sib.Heuristic != pr.Heur || sib.Workload != p.Workload {
				t.Fatalf("cal point %d: probe %+v names no %s sibling", p.ID, pr, pr.Heur)
			}
		}
	}
	if twins != 4 {
		t.Fatalf("%d mvp/cal twins of a vp point, want 4", twins)
	}
}

// TestTwinsShareMapping: every mvp/vp pair of the default sweep
// executes one mapping, so the pair's compute and traffic agree and
// their ratio is fidelity alone, not search noise.
func TestTwinsShareMapping(t *testing.T) {
	points := expandSweep(t, "default", 1)
	results := (&Engine{}).Run(points)
	type key struct {
		plat, wl, heur string
	}
	mvp := map[key]Metrics{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
		}
		if r.Point.Fidelity == "mvp" {
			mvp[key{r.Point.Plat.String(), r.Point.Workload, r.Point.Heuristic}] = r.Metrics
		}
	}
	anneal := 0
	for _, r := range results {
		p := r.Point
		if p.Fidelity != "vp" {
			continue
		}
		m, ok := mvp[key{p.Plat.String(), p.Workload, p.Heuristic}]
		if !ok {
			t.Fatalf("vp point %d has no mvp twin", p.ID)
		}
		if r.Metrics.BusyPS != m.BusyPS || r.Metrics.NoCTransfers != m.NoCTransfers {
			t.Fatalf("vp point %d (%s) and its mvp twin differ: busy %d vs %d ps, %d vs %d transfers",
				p.ID, p.Heuristic, r.Metrics.BusyPS, m.BusyPS, r.Metrics.NoCTransfers, m.NoCTransfers)
		}
		if p.Heuristic == "anneal" {
			anneal++
		}
	}
	if anneal != 144 {
		t.Fatalf("%d anneal mvp/vp pairs, want the default sweep's 144", anneal)
	}
}

// TestMappingMemoMatchesFresh: one EvalContext — whose evaluator
// returns its last mapping again when the next point binds the same
// graph and platform tables under the same heuristic, objective and
// seed — writes every point's result line
// byte-identical to dse.Evaluate on a fresh context, in expansion
// order and in reverse (where the vp twin searches and the mvp point
// reuses), and a two-worker Engine writes the same lines.
func TestMappingMemoMatchesFresh(t *testing.T) {
	specs := []struct {
		spec string
		seed uint64
	}{
		{"default", 1},
		{"plat=homog4,wireless;wl=jpeg,synth12;heur=list,anneal;fid=mvp,vp64,cal:1,cal:4", 5},
		{twinMixedSpec, 3},
	}
	for _, s := range specs {
		if s.spec == "default" && testing.Short() {
			continue // 612 points, each also on a fresh context
		}
		t.Run(s.spec, func(t *testing.T) {
			points := expandSweep(t, s.spec, s.seed)
			line := func(r Result) string {
				t.Helper()
				if r.Err != "" {
					t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
				}
				var b bytes.Buffer
				if err := WriteResult(&b, r); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			want := make([]string, len(points))
			for i, p := range points {
				want[i] = line(Evaluate(p))
			}
			reversed := slices.Clone(points)
			slices.Reverse(reversed)
			for name, order := range map[string][]Point{"expansion": points, "reverse": reversed} {
				c := NewEvalContext()
				o := NewEvalObs(obs.NewRegistry())
				c.SetObs(o)
				hits := 0
				for _, p := range order {
					before := o.Search.Schedules.Value()
					if got := line(c.Evaluate(p)); got != want[p.ID] {
						t.Fatalf("%s order, point %d on a reused context:\n got %s\nwant %s", name, p.ID, got, want[p.ID])
					}
					if p.Fidelity != "rtos" && o.Search.Schedules.Value() == before {
						hits++ // executed the memo without scheduling
					}
				}
				if hits == 0 {
					t.Fatalf("%s order: no point executed the mapping memo", name)
				}
			}
			for i, r := range (&Engine{Workers: 2}).Run(points) {
				if got := line(r); got != want[i] {
					t.Fatalf("2 workers, point %d:\n got %s\nwant %s", i, got, want[i])
				}
			}
		})
	}
}

// TestMappingMemoKey: each part of the memo key — seed, heuristic,
// objective, platform tables, graph — makes the next point search
// again. One
// context evaluates a stream in which consecutive points differ in one
// part only, and every line equals a fresh context's.
func TestMappingMemoKey(t *testing.T) {
	p := Point{
		Seed: 12345, Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		Workload: "synth", N: 16, WorkloadSeed: 99, Heuristic: "anneal", Fidelity: "mvp",
	}
	seed, pipe, list, dvfs, graph, vp := p, p, p, p, p, p
	seed.Seed++
	pipe.Fidelity, pipe.Iterations = "pipe", 4 // same seed, throughput objective
	list.Heuristic = "list"
	dvfs.Plat.DVFS = 2
	graph.N = 12
	vp.Fidelity, vp.Quantum = "vp", 64
	stream := []Point{p, vp, seed, p, pipe, p, list, p, dvfs, p, graph, p, p}
	line := func(r Result) string {
		t.Helper()
		if r.Err != "" {
			t.Fatalf("point failed: %s", r.Err)
		}
		var b bytes.Buffer
		if err := WriteResult(&b, r); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if line(Evaluate(p)) == line(Evaluate(seed)) {
		t.Fatal("vacuous: the two seeds anneal to the same result")
	}
	c := NewEvalContext()
	o := NewEvalObs(obs.NewRegistry())
	c.SetObs(o)
	searched := make([]bool, len(stream))
	for i, q := range stream {
		before := o.Search.Schedules.Value()
		if got, want := line(c.Evaluate(q)), line(Evaluate(q)); got != want {
			t.Fatalf("stream point %d on a reused context:\n got %s\nwant %s", i, got, want)
		}
		searched[i] = o.Search.Schedules.Value() != before
	}
	for i, s := range searched {
		// Only the vp twin right after p and the repeat of p at the end
		// execute the memo.
		if want := i != 1 && i != len(stream)-1; s != want {
			t.Fatalf("stream point %d searched = %v, want %v", i, s, want)
		}
	}
}

// TestEngineKeepsTwinsOnOneWorker: the Engine hands each run of
// fidelity twins to one worker, so a sweep searches as many schedules
// and anneal moves on four workers as on one — the vp twins search
// nothing — and writes the same results.
func TestEngineKeepsTwinsOnOneWorker(t *testing.T) {
	points := expandSweep(t, "plat=homog4,wireless;wl=jpeg,synth12,jobs8;heur=list,anneal;fid=mvp,vp64,pipe4", 5)
	type work struct{ schedules, moves int64 }
	run := func(workers int) ([]Result, work) {
		o := NewEvalObs(obs.NewRegistry())
		var w work
		e := &Engine{Workers: workers, Obs: o}
		res := e.Run(points)
		w.schedules, w.moves = o.Search.Schedules.Value(), o.Search.AnnealMoves.Value()
		for _, r := range res {
			if r.Err != "" {
				t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
			}
		}
		return res, w
	}
	one, w1 := run(1)
	four, w4 := run(4)
	if w4 != w1 {
		t.Fatalf("4 workers searched %+v, 1 worker %+v", w4, w1)
	}
	for i := range one {
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Fatalf("point %d: 4 workers %+v, 1 worker %+v", i, four[i], one[i])
		}
	}
	var fresh int64
	for _, p := range points {
		if p.Fidelity == "vp" || p.Fidelity == "rtos" {
			continue
		}
		o := NewEvalObs(obs.NewRegistry())
		c := NewEvalContext()
		c.SetObs(o)
		c.Evaluate(p)
		fresh += o.Search.Schedules.Value()
	}
	if w1.schedules != fresh {
		t.Fatalf("the sweep scheduled %d times, its mvp and pipe points alone %d", w1.schedules, fresh)
	}
}
