package mapping

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/xrand"
)

// execPlatform builds one platform shape of the oracle test on a
// private kernel: a preset, homogeneous or mixed core set on a mesh or
// the shared bus, at a DVFS level, with a memory model from a mem=
// token (ideal attaches none).
type execPlatform struct {
	name   string
	fabric string
	level  int
	mem    string
}

func (s execPlatform) String() string {
	return fmt.Sprintf("%s/%s/L%d/%s", s.name, s.fabric, s.level, s.mem)
}

func (s execPlatform) build() *platform.Platform {
	k := sim.NewKernel()
	var fabric platform.Fabric
	switch s.fabric {
	case "mesh":
		fabric = noc.MeshFor(k, 8)
	default:
		fabric = noc.DefaultBus(k)
	}
	var p *platform.Platform
	switch s.name {
	case "wireless":
		p = platform.NewWirelessTerminal(k, fabric)
	case "homog4":
		p = platform.NewHomogeneous(k, 4, 1_000_000_000, fabric)
	case "mpcore2":
		p = platform.NewMPCoreLike(k, 2, fabric)
	case "celllike3":
		p = platform.NewCellLike(k, 3, fabric)
	default:
		groups, err := platform.ParseMix(s.name)
		if err != nil {
			panic(err)
		}
		p = platform.NewMix(k, groups, fabric)
	}
	for _, c := range p.Cores {
		if err := c.SetLevel(min(s.level, len(c.Levels)-1)); err != nil {
			panic(err)
		}
	}
	spec, err := mem.ParseSpec(s.mem)
	if err != nil {
		panic(err)
	}
	if m := spec.Build(p.MemTiming()); m != nil {
		p.Mem = m
	}
	return p
}

// execDAG is a random task graph that runs on every PE class: up to
// 12 tasks, forward edges only (acyclic by construction), parallel
// edges allowed, and payloads from 0 bytes to 8 KiB so both
// serialization-bound and latency-bound transfers occur.
func execDAG(r *xrand.Rand) *taskgraph.Graph {
	n := 1 + r.Intn(12)
	g := taskgraph.NewGraph("oracle")
	for i := 0; i < n; i++ {
		wcet := map[platform.PEClass]int64{}
		for c := platform.RISC; c <= platform.CTRL; c++ {
			wcet[c] = r.Range(0, 400_000)
		}
		g.AddTask(&taskgraph.Task{Name: "t", WCET: wcet})
	}
	for e := r.Intn(2 * n); e > 0; e-- {
		from, to := r.Intn(n), r.Intn(n)
		if from < to {
			g.Connect(g.Tasks[from], g.Tasks[to], int(r.Range(0, 8192)), "")
		}
	}
	return g
}

// execRun is everything one executor run can show: the stats, the
// per-app makespans, and the kernel's full dispatch stream.
type execRun struct {
	stats    ExecStats
	apps     []sim.Time
	err      string
	executed uint64
	now      sim.Time
	live     int
	times    []sim.Time
}

// recordRun runs exec on a's kernel with runKernel swapped for a
// stepping loop that records every dispatch time.
func recordRun(a *Assignment, exec func(*Assignment) (ExecStats, []sim.Time, error)) execRun {
	var rec execRun
	saved := runKernel
	runKernel = func(k *sim.Kernel) {
		for k.Step() {
			rec.times = append(rec.times, k.Now())
		}
	}
	defer func() { runKernel = saved }()
	var err error
	rec.stats, rec.apps, err = exec(a)
	if err != nil {
		rec.err = err.Error()
	}
	k := a.Platform.Kernel
	rec.executed, rec.now, rec.live = k.Executed, k.Now(), k.LiveProcs()
	return rec
}

// TestCallbackExecutorsMatchProcOracle is the differential contract of
// the callback executors: on random DAGs, random assignments and every
// platform, fabric and memory shape the sweeps cross, Execute,
// ExecuteMulti and ExecutePipelined (1..16 iterations) reproduce the
// goroutine executors of procexec_test.go exactly — stats, per-app
// makespans, Kernel.Executed, Kernel.Now and the full per-event
// dispatch-time sequence. Each platform pair runs three executions
// back to back on one kernel, so runs starting from a non-zero time
// and warm fabric and memory state are covered too.
func TestCallbackExecutorsMatchProcOracle(t *testing.T) {
	var plats []execPlatform
	for _, name := range []string{"wireless", "homog4", "mpcore2", "celllike3", "2xrisc+1xdsp"} {
		for _, fabric := range []string{"mesh", "bus"} {
			for _, m := range []string{"ideal", "bank:4x2", "bank:1x1", "bw:2"} {
				plats = append(plats, execPlatform{name, fabric, len(plats) % 3, m})
			}
		}
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	r := xrand.New(20240517)
	for round := 0; round < rounds; round++ {
		for _, ps := range plats {
			apps := make([]*taskgraph.Graph, 1+r.Intn(3))
			for i := range apps {
				apps[i] = execDAG(r)
			}
			g, spans := taskgraph.Union("oracle", apps...)
			iters := 1 + r.Intn(16)
			pc, po := ps.build(), ps.build()
			taskPE := make([]int, len(g.Tasks))
			for id := range taskPE {
				taskPE[id] = r.Intn(len(pc.Cores))
			}
			ac := &Assignment{Graph: g, Platform: pc, TaskPE: taskPE}
			ao := &Assignment{Graph: g, Platform: po, TaskPE: taskPE}
			steps := []struct {
				name       string
				callback   func(*Assignment) (ExecStats, []sim.Time, error)
				goroutines func(*Assignment) (ExecStats, []sim.Time, error)
			}{
				{"Execute",
					func(a *Assignment) (ExecStats, []sim.Time, error) { s, err := Execute(a); return s, nil, err },
					func(a *Assignment) (ExecStats, []sim.Time, error) {
						s, _, err := executeSpansProc(a, nil)
						return s, nil, err
					}},
				{"ExecuteMulti",
					func(a *Assignment) (ExecStats, []sim.Time, error) { return ExecuteMulti(a, spans) },
					func(a *Assignment) (ExecStats, []sim.Time, error) { return executeSpansProc(a, spans) }},
				{fmt.Sprintf("ExecutePipelined(%d)", iters),
					func(a *Assignment) (ExecStats, []sim.Time, error) {
						s, err := ExecutePipelined(a, iters)
						return s, nil, err
					},
					func(a *Assignment) (ExecStats, []sim.Time, error) {
						s, err := executePipelinedProc(a, iters)
						return s, nil, err
					}},
			}
			for _, st := range steps {
				got := recordRun(ac, st.callback)
				want := recordRun(ao, st.goroutines)
				where := fmt.Sprintf("round %d %v %s (%d tasks, %d edges, %d apps)",
					round, ps, st.name, len(g.Tasks), len(g.Edges), len(spans))
				if got.err != "" || want.err != "" {
					t.Fatalf("%s: callback err %q, oracle err %q", where, got.err, want.err)
				}
				if want.live != 0 || got.live != 0 {
					t.Fatalf("%s: live procs callback %d, oracle %d", where, got.live, want.live)
				}
				if len(want.times) == 0 {
					t.Fatalf("%s: oracle dispatched no events", where)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: callback run differs from the goroutine oracle\ncallback: %+v\noracle:   %+v",
						where, got.stats, want.stats)
				}
			}
		}
	}
}

// TestCallbackExecutorsMatchProcOracleOnMappedWorkloads repeats the
// differential check on the mapper's own assignments of the built-in
// workloads, the shapes the sweeps actually execute.
func TestCallbackExecutorsMatchProcOracleOnMappedWorkloads(t *testing.T) {
	for _, g := range evalWorkloads() {
		for _, ps := range []execPlatform{{"wireless", "mesh", 1, "ideal"}, {"homog4", "bus", 1, "bank:4x2"}} {
			pc, po := ps.build(), ps.build()
			a, err := Map(g, pc, Options{Heuristic: Anneal, Seed: 3, Iterations: 200})
			if err != nil {
				t.Fatal(err)
			}
			ao := &Assignment{Graph: g, Platform: po, TaskPE: a.TaskPE}
			for _, iters := range []int{1, 8} {
				got := recordRun(a, func(a *Assignment) (ExecStats, []sim.Time, error) {
					s, err := ExecutePipelined(a, iters)
					return s, nil, err
				})
				want := recordRun(ao, func(a *Assignment) (ExecStats, []sim.Time, error) {
					s, err := executePipelinedProc(a, iters)
					return s, nil, err
				})
				if want.err != "" || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %v, %d iterations: callback %+v (err %q), oracle %+v (err %q)",
						g.Name, ps, iters, got.stats, got.err, want.stats, want.err)
				}
			}
			got := recordRun(a, func(a *Assignment) (ExecStats, []sim.Time, error) { s, err := Execute(a); return s, nil, err })
			want := recordRun(ao, func(a *Assignment) (ExecStats, []sim.Time, error) {
				s, _, err := executeSpansProc(a, nil)
				return s, nil, err
			})
			if want.err != "" || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %v: Execute %+v, oracle %+v", g.Name, ps, got.stats, want.stats)
			}
		}
	}
}

// TestExecutorReuseMatchesFresh drives one Executor through a run of
// assignments whose task, edge and core counts grow and shrink, on
// every fabric and memory shape, and checks each run against a fresh
// Executor on a twin platform: stats, per-app makespans,
// Kernel.Executed, Kernel.Now and the full dispatch stream. A
// deadlocked one-shot run and a stalled pipeline, each followed by a
// clean run, check that a failed run leaves nothing behind in the
// reused scratch. A reused executor's result is its scratch, valid
// until its next run: the fresh executor's run in between must leave
// it as it was returned.
func TestExecutorReuseMatchesFresh(t *testing.T) {
	var plats []execPlatform
	for _, name := range []string{"homog4", "mpcore2", "wireless", "celllike3", "2xrisc+1xdsp"} {
		for _, fabric := range []string{"mesh", "bus"} {
			for _, m := range []string{"ideal", "bank:4x2", "bw:8"} {
				plats = append(plats, execPlatform{name, fabric, len(plats) % 3, m})
			}
		}
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	var reused Executor
	// last holds the reused executor's latest result next to a copy
	// taken when it was returned.
	var last [2]execRun
	r := xrand.New(20261017)
	check := func(where string, ac, af *Assignment, run func(*Executor, *Assignment) (ExecStats, []sim.Time, error)) execRun {
		t.Helper()
		if !reflect.DeepEqual(last[0], last[1]) {
			t.Fatalf("%s: the last result changed before its executor ran again: %+v, was %+v", where, last[0].stats, last[1].stats)
		}
		got := recordRun(ac, func(a *Assignment) (ExecStats, []sim.Time, error) { return run(&reused, a) })
		want := recordRun(af, func(a *Assignment) (ExecStats, []sim.Time, error) { return run(new(Executor), a) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused executor differs from a fresh one\nreused: %+v (err %q)\nfresh:  %+v (err %q)",
				where, got.stats, got.err, want.stats, want.err)
		}
		snap := got
		snap.stats.PEBusy, snap.apps = slices.Clone(got.stats.PEBusy), slices.Clone(got.apps)
		last = [2]execRun{got, snap}
		return got
	}
	execute := func(ex *Executor, a *Assignment) (ExecStats, []sim.Time, error) {
		s, err := ex.Execute(a)
		return s, nil, err
	}
	pipelined := func(iters int) func(*Executor, *Assignment) (ExecStats, []sim.Time, error) {
		return func(ex *Executor, a *Assignment) (ExecStats, []sim.Time, error) {
			s, err := ex.ExecutePipelined(a, iters)
			return s, nil, err
		}
	}
	for round := 0; round < rounds; round++ {
		for pi, ps := range plats {
			apps := make([]*taskgraph.Graph, 1+r.Intn(3))
			for i := range apps {
				apps[i] = execDAG(r)
			}
			g, spans := taskgraph.Union("reuse", apps...)
			pc, pf := ps.build(), ps.build()
			taskPE := make([]int, len(g.Tasks))
			for id := range taskPE {
				taskPE[id] = r.Intn(len(pc.Cores))
			}
			ac := &Assignment{Graph: g, Platform: pc, TaskPE: taskPE}
			af := &Assignment{Graph: g, Platform: pf, TaskPE: taskPE}
			where := fmt.Sprintf("round %d %v (%d tasks, %d edges, %d apps)", round, ps, len(g.Tasks), len(g.Edges), len(spans))
			if pi%5 == 0 {
				// t0 feeds t1 and t2, which feed each other: t0 runs,
				// the cycle never becomes ready (one-shot) or drains
				// t0's FIFO until it blocks (pipelined).
				cyc := chainGraph(3, 50_000, 4096)
				cyc.Connect(cyc.Tasks[0], cyc.Tasks[2], 512, "")
				cyc.Connect(cyc.Tasks[2], cyc.Tasks[1], 512, "")
				pe := []int{0, 1 % len(pc.Cores), 0}
				for _, run := range []func(*Executor, *Assignment) (ExecStats, []sim.Time, error){execute, pipelined(4)} {
					if got := check(where+" cycle", &Assignment{Graph: cyc, Platform: pc, TaskPE: pe},
						&Assignment{Graph: cyc, Platform: pf, TaskPE: pe}, run); got.err == "" {
						t.Fatalf("%s: cyclic graph ran to completion", where)
					}
				}
			}
			iters := 1 + r.Intn(16)
			check(where+" Execute", ac, af, execute)
			check(where+" ExecuteMulti", ac, af, func(ex *Executor, a *Assignment) (ExecStats, []sim.Time, error) {
				return ex.ExecuteMulti(a, spans)
			})
			check(fmt.Sprintf("%s ExecutePipelined(%d)", where, iters), ac, af, pipelined(iters))
		}
	}
}

// TestExecutorAllocsPerRun pins the allocation-free steady state: a
// warm Executor on a platform with a bank memory model allocates
// nothing per run — PEBusy and the app makespans are its scratch —
// whatever the number of cross-PE transfers, which each go through the
// fabric and the memory model.
func TestExecutorAllocsPerRun(t *testing.T) {
	var ex Executor
	for _, n := range []int{2, 8, 32} {
		g := chainGraph(n, 40_000, 256)
		plat := memPlat()
		taskPE := make([]int, n)
		for id := range taskPE {
			taskPE[id] = id % 2 // every edge crosses cores
		}
		a := &Assignment{Graph: g, Platform: plat, TaskPE: taskPE}
		spans := []taskgraph.Span{{Lo: 0, Hi: n}}
		for _, c := range []struct {
			name string
			want float64
			run  func() error
		}{
			{"Execute", 0, func() error { _, err := ex.Execute(a); return err }},
			{"ExecuteMulti", 0, func() error { _, _, err := ex.ExecuteMulti(a, spans); return err }},
			{"ExecutePipelined", 0, func() error { _, err := ex.ExecutePipelined(a, 8); return err }},
		} {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(20, func() { c.run() }); got != c.want {
				t.Errorf("%s on a %d-task cross-core chain: %v allocs/run, want %v", c.name, n, got, c.want)
			}
		}
		if st, err := ex.Execute(a); err != nil || st.Fabric.Transfers != uint64(n-1) || st.Mem.Transfers != uint64(n-1) {
			t.Fatalf("%d-task chain: %d fabric, %d memory transfers (err %v), want %d each", n, st.Fabric.Transfers, st.Mem.Transfers, err, n-1)
		}
	}
}
