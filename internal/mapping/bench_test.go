package mapping

import (
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// liveSearchObs returns a SearchObs with every counter attached, so
// the *Obs benchmark variants measure the instrumented fast path (nil
// check + atomic add) rather than the inert one.
func liveSearchObs(r *obs.Registry) SearchObs {
	return SearchObs{
		Schedules:      r.Counter("map_schedules_total", "Static-schedule constructions."),
		TasksScheduled: r.Counter("map_tasks_scheduled_total", "Tasks placed by static schedules."),
		CostEvals:      r.Counter("map_cost_evals_total", "Objective-cost evaluations."),
		AnnealMoves:    r.Counter("map_anneal_moves_total", "Proposed annealing moves."),
		AnnealAccepts:  r.Counter("map_anneal_accepts_total", "Accepted annealing moves."),
		AnnealRejects:  r.Counter("map_anneal_rejects_total", "Rejected annealing moves."),
		Certified:      r.Counter("map_certified_total", "Searches ended by the lower bound."),
	}
}

// Benchmarks of the candidate-evaluation hot path: evaluate,
// objectiveCost and the incremental anneal move must stay at 0
// allocs/op (CI guards this; limits and current figures are in
// docs/performance.md), and BenchmarkAnneal is the headline
// mapping-search figure.

func BenchmarkEvaluate(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnealCost(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.objectiveCost(Makespan, a.TaskPE)
	}
}

// BenchmarkEvaluateObs is BenchmarkEvaluate with live metrics
// attached; the CI guard requires it to stay at 0 allocs/op, proving
// instrumentation-on costs no allocations on the hot path.
func BenchmarkEvaluateObs(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	ev.Obs = liveSearchObs(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealCostObs is BenchmarkAnnealCost with live metrics
// attached; CI requires 0 allocs/op here too.
func BenchmarkAnnealCostObs(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	ev.Obs = liveSearchObs(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.objectiveCost(Makespan, a.TaskPE)
	}
}

// BenchmarkEvaluateMem is BenchmarkEvaluate with a bank/channel
// memory contention model attached to the platform: the scheduler
// charges the model's estimate per cross-PE edge. The CI guard
// requires 0 allocs/op — the memory axis must not buy its fidelity
// with allocations on the scoring path.
func BenchmarkEvaluateMem(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	access, bpns := plat.MemTiming()
	plat.Mem = mem.NewBankModel(4, 2, access, bpns)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealMove is one makespan anneal move and its revert on a
// bound evaluator — the incremental scoring path: reschedule from the
// moved task's topological position (suffix), then restore the
// committed finish times and core. Iterations cycle through the tasks,
// each moved to its next capable core. The CI guard requires 0
// allocs/op.
func BenchmarkAnnealMove(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := memPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	cur := a.TaskPE
	ev.objectiveCost(Makespan, cur)
	pos, peq := ev.pos, ev.peq
	next := make([]int, len(cur))
	for id, pe := range cur {
		cands := ev.Capable(id)
		for j, c := range cands {
			if c == pe {
				next[id] = cands[(j+1)%len(cands)]
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(cur)
		q := int(pos[id])
		peq[q] = int32(next[id])
		ev.suffix(q, sim.Forever)
		peq[q] = int32(cur[id])
		ev.restore(q, len(ev.order))
	}
}

// requireCertified fails b unless an anneal of g on plat under opt is
// certified at its start (want true) or runs all its moves (want
// false), so a benchmark keeps timing the search it names.
func requireCertified(b *testing.B, g *taskgraph.Graph, plat *platform.Platform, opt Options, want bool) {
	b.Helper()
	ev := NewEvaluator(g, plat)
	ev.Obs = liveSearchObs(obs.NewRegistry())
	if _, err := ev.Map(opt); err != nil {
		b.Fatal(err)
	}
	if got := ev.Obs.Certified.Value() == 1; got != want {
		b.Fatalf("%s on %s: certified %v, want %v (%d anneal moves)", g.Name, plat.Name, got, want, ev.Obs.AnnealMoves.Value())
	}
}

// BenchmarkAnneal is a full 2000-move makespan search: its start is
// not certified.
func BenchmarkAnneal(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	requireCertified(b, g, plat, Options{Heuristic: Anneal, Seed: 7}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, plat, Options{Heuristic: Anneal, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealCertified is a makespan anneal whose list start
// meets the lower bound (carradio on four homogeneous cores), on a
// warm evaluator: the list mapping, its schedule and the bound, no
// move. The CI guard requires 0 allocs/op.
func BenchmarkAnnealCertified(b *testing.B) {
	g := workload.CarRadioTaskGraph()
	k := sim.NewKernel()
	plat := platform.NewHomogeneous(k, 4, 1_000_000_000, noc.MeshFor(k, 4))
	opt := Options{Heuristic: Anneal, Seed: 7}
	requireCertified(b, g, plat, opt, true)
	ev := NewEvaluator(g, plat)
	if _, err := ev.annealMap(opt); err != nil { // grow the heuristics' scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.annealMap(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustive(b *testing.B) {
	g := workload.CarRadioTaskGraph()
	plat := wirelessPlat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, plat, Options{Heuristic: Exhaustive}); err != nil {
			b.Fatal(err)
		}
	}
}

// The execution benchmarks time each executor against its goroutine
// oracle (procexec_test.go) on the same assignment: /callback is the
// code the sweeps run — one warm Executor, as a dse worker keeps one
// across points — and /proc the one-sim.Proc-per-task executor it
// replaced. The CI guard requires every /callback variant to stay ≥3×
// faster than its /proc twin and within the allocs/op limits listed in
// docs/performance.md ("Limits CI enforces").

// benchExec runs exec once per iteration, re-using one platform and
// kernel as a dse worker re-uses its platform across points.
func benchExec(b *testing.B, a *Assignment, exec func(*Assignment) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	g := workload.JPEGTaskGraph()
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("callback", func(b *testing.B) {
		var ex Executor
		benchExec(b, a, func(a *Assignment) error { _, err := ex.Execute(a); return err })
	})
	b.Run("proc", func(b *testing.B) {
		benchExec(b, a, func(a *Assignment) error { _, _, err := executeSpansProc(a, nil); return err })
	})
}

// BenchmarkExecuteMulti runs the two-app jpeg+carradio union, the
// shape of a wl=multi: sweep point.
func BenchmarkExecuteMulti(b *testing.B) {
	g, spans := taskgraph.Union("multi", workload.JPEGTaskGraph(), workload.CarRadioTaskGraph())
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("callback", func(b *testing.B) {
		var ex Executor
		benchExec(b, a, func(a *Assignment) error { _, _, err := ex.ExecuteMulti(a, spans); return err })
	})
	b.Run("proc", func(b *testing.B) {
		benchExec(b, a, func(a *Assignment) error { _, _, err := executeSpansProc(a, spans); return err })
	})
}

// BenchmarkExecutePipelined runs JPEG through 8 pipelined iterations
// under the throughput objective, the fid=pipe sweep point's shape.
func BenchmarkExecutePipelined(b *testing.B) {
	g := workload.JPEGTaskGraph()
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Objective: Throughput})
	if err != nil {
		b.Fatal(err)
	}
	const iters = 8
	b.Run("callback", func(b *testing.B) {
		var ex Executor
		benchExec(b, a, func(a *Assignment) error { _, err := ex.ExecutePipelined(a, iters); return err })
	})
	b.Run("proc", func(b *testing.B) {
		benchExec(b, a, func(a *Assignment) error { _, err := executePipelinedProc(a, iters); return err })
	})
}
