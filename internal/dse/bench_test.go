package dse

import (
	"testing"

	"mpsockit/internal/mapping"
	"mpsockit/internal/obs"
)

// BenchmarkSweepPoint measures one design-point evaluation end to end
// (platform build, mapping search, mapped execution) — the unit of
// work the sweep engine repeats hundreds of times per run. The pipe8
// variants evaluate the same (platform, workload, heuristic) at the
// pipelined fidelity with 8 iterations, and rtos/jobs16 a 16-job bag
// on the same platform; their ratios to list/mvp are the evidence
// behind EstCost's pipe and rtos terms.
func BenchmarkSweepPoint(b *testing.B) {
	run := func(name string, p Point) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := Evaluate(p)
				if r.Err != "" {
					b.Fatal(r.Err)
				}
			}
		})
	}
	base := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Fidelity:     "mvp",
	}
	for _, heur := range []string{"anneal", "list"} {
		p := base
		p.Heuristic = heur
		run(heur+"/mvp", p)
		p.Fidelity, p.Iterations = "pipe", 8
		run(heur+"/pipe8", p)
	}
	jobs := base
	jobs.Workload, jobs.Heuristic, jobs.Fidelity = "jobs", "-", "rtos"
	run("rtos/jobs16", jobs)
}

// BenchmarkSweepPointWarm is BenchmarkSweepPoint's points on one warm
// EvalContext, as a sweep worker evaluates them: the kernel, the
// platform, the graph prototype and the mapping and execution scratch
// are all reused, so allocs/op is what a point still allocates in
// steady state (CI guards it; limits in docs/performance.md). The
// searched points alternate two mapping seeds and two workload
// instances (alternateGraph), so every iteration searches and
// executes; vp64/twin repeats one vp point, so every
// iteration takes the mapping memo and reuses the last execution, as
// the vp twin of an mvp point does in a sweep (the evidence behind
// EstCost's twinCost). anneal/mvp times a full search: it fails if
// either seed's start is certified by the lower bound. anneal/twin
// alternates a list and an anneal point whose anneal keeps its list
// start, carradio on four cores: each searches, and each reuses the
// other's execution (it fails unless both do).
func BenchmarkSweepPointWarm(b *testing.B) {
	base := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Fidelity:     "mvp",
	}
	listMVP, annealMVP, listPipe, jobs, twin, kept := base, base, base, base, base, base
	listMVP.Heuristic = "list"
	annealMVP.Heuristic = "anneal"
	listPipe.Heuristic, listPipe.Fidelity, listPipe.Iterations = "list", "pipe", 8
	jobs.Workload, jobs.Heuristic, jobs.Fidelity = "jobs", "-", "rtos"
	twin.Heuristic, twin.Fidelity, twin.Quantum = "anneal", "vp", 64
	kept.Plat, kept.Workload, kept.N, kept.Heuristic = PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1}, "carradio", 0, "anneal"
	requireKeptStart(b, kept)
	for _, c := range []struct {
		name   string
		p      Point
		search bool
	}{
		{"list/mvp", listMVP, true}, {"anneal/mvp", annealMVP, true}, {"list/pipe8", listPipe, true},
		{"rtos/jobs16", jobs, false}, {"vp64/twin", twin, false}, {"anneal/twin", kept, false},
	} {
		if c.p.Heuristic == "anneal" && c.search {
			requireFullSearch(b, c.p)
		}
		b.Run(c.name, func(b *testing.B) {
			ctx := NewEvalContext()
			ctx.Evaluate(alternateGraph(c.p, 1)) // warm the caches, c.p last
			ctx.Evaluate(c.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := c.p
				if c.search {
					p = alternateGraph(p, i)
				}
				if c.name == "anneal/twin" && i&1 == 0 {
					p.Heuristic = "list"
				}
				if r := ctx.Evaluate(p); r.Err != "" {
					b.Fatal(r.Err)
				}
			}
		})
	}
}

// requireFullSearch fails b unless evaluating p and its alternate
// anneals every move of both searches, none ended by the lower bound.
func requireFullSearch(b *testing.B, p Point) {
	b.Helper()
	o := NewEvalObs(obs.NewRegistry())
	c := NewEvalContext()
	c.SetObs(o)
	for i := range 2 {
		if r := c.Evaluate(alternateGraph(p, i)); r.Err != "" {
			b.Fatal(r.Err)
		}
	}
	if n := o.Search.Certified.Value(); n != 0 {
		b.Fatalf("%d of the 2 searches certified at the start (%d anneal moves)", n, o.Search.AnnealMoves.Value())
	}
}

// requireKeptStart fails b unless the list twin of anneal point p and
// p, evaluated in turn, each reuse the other's execution: p's anneal
// returns its list start.
func requireKeptStart(b *testing.B, p Point) {
	b.Helper()
	o := NewEvalObs(obs.NewRegistry())
	c := NewEvalContext()
	c.SetObs(o)
	list := p
	list.Heuristic = "list"
	for _, q := range []Point{list, p, list} {
		if r := c.Evaluate(q); r.Err != "" {
			b.Fatal(r.Err)
		}
	}
	if n := o.ExecReused.Value(); n != 2 {
		b.Fatalf("list and anneal twins reused %d executions, want 2", n)
	}
}

// alternateSeed returns p with its mapping seed flipped on odd i. A
// reused EvalContext's evaluator returns its last mapping unsearched
// when a point repeats the last one's graph, platform tables and
// options, so a benchmark or test that evaluates
// one point over and over alternates the seed to search every time.
func alternateSeed(p Point, i int) Point {
	p.Seed ^= uint64(i & 1)
	return p
}

// alternateGraph is alternateSeed that also flips the workload seed on
// odd i: the list heuristic ignores the mapping seed, and a context
// reuses its last execution of the same mapping, so a benchmark that
// times executions alternates the graph too.
func alternateGraph(p Point, i int) Point {
	p = alternateSeed(p, i)
	p.WorkloadSeed ^= uint64(i & 1)
	return p
}

// vpBenchPoint is the vp-fidelity benchmark point: an 8-core platform
// whose refinement runs 8 ISS cores.
func vpBenchPoint() Point {
	return Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "homog", Cores: 8, Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Heuristic:    "list",
		Fidelity:     "vp",
		Quantum:      64,
	}
}

// vpRefineBenchInput returns vpBenchPoint and the task-level execution
// record its refinement starts from.
func vpRefineBenchInput(tb testing.TB) (Point, mapping.ExecStats) {
	tb.Helper()
	p := vpBenchPoint()
	c := NewEvalContext()
	k := reuseKernel(&c.k)
	plat, _, err := buildPlatform(k, p.Plat)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := c.graph(p)
	if err != nil {
		tb.Fatal(err)
	}
	c.me.Bind(g, plat)
	a, err := c.me.Map(mapping.Options{Heuristic: mapping.List, Seed: p.Seed})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := mapping.Execute(a)
	if err != nil {
		tb.Fatal(err)
	}
	return p, stats
}

// BenchmarkVPRefine measures the vp refinement step of vpBenchPoint
// alone: "closed" is the closed form the sweep runs, "iss" the ISS run
// it replaced, kept as the test oracle. CI guards two properties of
// this output with awk: closed holds 0 allocs/op, and iss/closed
// ns/op stays at least 100x.
func BenchmarkVPRefine(b *testing.B) {
	p, stats := vpRefineBenchInput(b)
	c := NewEvalContext()
	b.Run("closed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := c.vpRefine(p, stats); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iss", func(b *testing.B) {
		withISS(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := c.vpRefine(p, stats); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVPPointEval is the full instruction-level design-point
// evaluation — mapping search, task-level execution, vp refinement —
// fresh context per point versus one reused context; this is the
// number the sweep wall-clock actually moves by.
func BenchmarkVPPointEval(b *testing.B) {
	p := vpBenchPoint()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewEvalContext().Evaluate(p)
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		c := NewEvalContext()
		c.Evaluate(p) // warm the caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := c.Evaluate(alternateSeed(p, i))
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	})
}

// BenchmarkSweepPointObs is the same point evaluated on a reused
// EvalContext with live metrics attached — the farm worker's
// steady-state configuration. TestInstrumentationAllocFree holds that
// this path allocates exactly what the unobserved one does.
func BenchmarkSweepPointObs(b *testing.B) {
	p := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Heuristic:    "anneal",
		Fidelity:     "mvp",
	}
	c := NewEvalContext()
	c.SetObs(NewEvalObs(obs.NewRegistry()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Evaluate(alternateSeed(p, i))
		if r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}

// taskLevelSpec is the task-level benchmark sweep's spec (2,520 points:
// custom mixes, memory models, multi-app graphs), as perfbench's
// sweep_tasklevel workload expands it.
const taskLevelSpec = "plat=homog4,homog8,homog16,mpcore4,wireless,celllike4,2xrisc+4xdsp+1xvliw;" +
	"fab=mesh,bus;dvfs=0,1,2;mem=ideal,bank:4x2,bw:8;wl=jpeg,h264,synth32,synth64,multi:jpeg+carradio+synth8;" +
	"heur=list,anneal;fid=mvp,pipe8"

// BenchmarkExpand measures Expand — parse, expand, header with its
// spec hash — the set-up every sweep entry point runs before its first
// point. Per-dimension values are computed once and the hash reuses
// repeated platform and workload bytes, so allocs/op does not grow
// with the point count (CI guards ≤ 100; limits in
// docs/performance.md).
func BenchmarkExpand(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"default", "default"},
		{"tasklevel", taskLevelSpec},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Expand(c.spec, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
