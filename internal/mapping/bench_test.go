package mapping

import (
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/obs"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// liveSearchObs returns a SearchObs with every counter attached, so
// the *Obs benchmark variants measure the instrumented fast path (nil
// check + atomic add) rather than the inert one.
func liveSearchObs(r *obs.Registry) SearchObs {
	return SearchObs{
		Schedules:     r.Counter("map_schedules_total", "List-schedule evaluations."),
		CostEvals:     r.Counter("map_cost_evals_total", "Objective-cost evaluations."),
		AnnealMoves:   r.Counter("map_anneal_moves_total", "Proposed annealing moves."),
		AnnealAccepts: r.Counter("map_anneal_accepts_total", "Accepted annealing moves."),
		AnnealRejects: r.Counter("map_anneal_rejects_total", "Rejected annealing moves."),
	}
}

// Benchmarks of the candidate-evaluation hot path. These are the
// numbers docs/performance.md tracks PR-to-PR: evaluate and
// objectiveCost must stay at 0 allocs/op (CI guards this), and
// BenchmarkAnneal is the headline mapping-search figure.

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

func BenchmarkAnneal(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, plat, Options{Heuristic: Anneal, Seed: 7}); err != nil {
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
// code the sweeps run, /proc the one-sim.Proc-per-task executor it
// replaced. The CI guard requires every /callback variant to stay ≥3×
// faster than its /proc twin and within the allocs/op recorded in
// docs/performance.md.

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
		benchExec(b, a, func(a *Assignment) error { _, err := Execute(a); return err })
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
		benchExec(b, a, func(a *Assignment) error { _, _, err := ExecuteMulti(a, spans); return err })
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
		benchExec(b, a, func(a *Assignment) error { _, err := ExecutePipelined(a, iters); return err })
	})
	b.Run("proc", func(b *testing.B) {
		benchExec(b, a, func(a *Assignment) error { _, err := executePipelinedProc(a, iters); return err })
	})
}
