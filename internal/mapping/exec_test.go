package mapping

import (
	"fmt"
	"reflect"
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
