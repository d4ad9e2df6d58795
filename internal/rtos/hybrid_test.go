package rtos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/xrand"
)

// scenario is one randomized scheduler run: a platform, a split into
// time- and space-shared cores, a configuration, and a job bag whose
// jobs arrive at t=0 (submitted before the run) or mid-run (submitted
// by a kernel event, as mpsocsim does).
type scenario struct {
	plat    string // homog4, homog8, mpcore4, wireless or a core-mix spec
	dvfs    int    // DVFS level pinned as every core's nominal
	nTS     int    // the first nTS cores are time-shared
	cfg     Config
	jobs    []Job // templates: Arrival is the submit time, Deadline relative to it
	horizon sim.Time
}

var scenarioPlats = []string{"homog4", "homog8", "mpcore4", "wireless", "2xrisc+2xdsp+1xvliw", "1xctrl+3xdsp@3200+2xacc"}

func randScenario(r *xrand.Rand) scenario {
	sc := scenario{plat: scenarioPlats[r.Intn(len(scenarioPlats))], dvfs: r.Intn(3), nTS: r.Intn(4)}
	sc.cfg = Config{
		Quantum:           sim.Time(r.Range(50, 1500)) * sim.Microsecond,
		CtxSwitch:         sim.Time(r.Range(0, 5)) * sim.Microsecond,
		SyncCyclesPerStep: r.Range(0, 400),
		BoostWhenTight:    r.Bool(0.5),
	}
	n := 1 + r.Intn(24)
	for i := 0; i < n; i++ {
		j := Job{Kind: Sequential, WorkCycles: r.Range(1, 3_000_000), MaxWidth: 1}
		if r.Bool(0.6) {
			j.Kind, j.MaxWidth = Parallel, r.Intn(6) // 0 exercises the MaxWidth floor
		}
		if r.Bool(0.5) {
			j.Deadline = sim.Time(r.Range(int64(sim.Millisecond/2), int64(15*sim.Millisecond)))
		}
		if r.Bool(0.4) {
			j.Arrival = sim.Time(r.Range(0, int64(8*sim.Millisecond)))
		}
		sc.jobs = append(sc.jobs, j)
	}
	sc.horizon = 200 * sim.Millisecond
	if r.Bool(0.25) {
		sc.horizon = sim.Time(r.Range(int64(sim.Millisecond), int64(10*sim.Millisecond))) // cut mid-run
	}
	return sc
}

func (sc scenario) platform(k *sim.Kernel) *platform.Platform {
	var p *platform.Platform
	switch sc.plat {
	case "homog4":
		p = platform.NewHomogeneous(k, 4, 1_000_000_000, noc.MeshFor(k, 4))
	case "homog8":
		p = platform.NewHomogeneous(k, 8, 1_000_000_000, noc.MeshFor(k, 8))
	case "mpcore4":
		p = platform.NewMPCoreLike(k, 4, noc.DefaultBus(k))
	case "wireless":
		p = platform.NewWirelessTerminal(k, noc.MeshFor(k, 6))
	default:
		groups, err := platform.ParseMix(sc.plat)
		if err != nil {
			panic(err)
		}
		p = platform.NewMix(k, groups, noc.MeshFor(k, platform.MixCoreCount(groups)))
	}
	for i, c := range p.Cores {
		_ = c.SetLevel(min(sc.dvfs, len(c.Levels)-1))
		c.SetNominal()
		c.SpaceShared = i >= sc.nTS
	}
	return p
}

// scheduler is the surface the state machine and the oracle share.
type scheduler interface {
	Submit(*Job)
	Done() []*Job
	Stats() Stats
}

// schedRun is everything observable about one run.
type schedRun struct {
	Jobs     []Job // Started, Finished, Width, Boosted, Missed per job
	DoneIDs  []int // completion order
	Stats    Stats
	Executed uint64
	Now      sim.Time
	Hz       []int64 // every core's frequency after the run
}

// trial is one played scenario.
type trial struct {
	k    *sim.Kernel
	p    *platform.Platform
	s    scheduler
	jobs []*Job
}

// play runs sc on a fresh kernel and platform through the scheduler
// newSched builds.
func (sc scenario) play(newSched func(*sim.Kernel, *platform.Platform, Config) scheduler) trial {
	k := sim.NewKernel()
	p := sc.platform(k)
	tr := trial{k: k, p: p, s: newSched(k, p, sc.cfg), jobs: make([]*Job, len(sc.jobs))}
	for i, tmpl := range sc.jobs {
		j := &Job{Kind: tmpl.Kind, WorkCycles: tmpl.WorkCycles, MaxWidth: tmpl.MaxWidth, Deadline: tmpl.Deadline}
		tr.jobs[i] = j
		if tmpl.Arrival == 0 {
			tr.s.Submit(j)
			continue
		}
		k.Schedule(tmpl.Arrival, func() {
			if j.Deadline != 0 {
				j.Deadline += k.Now()
			}
			tr.s.Submit(j)
		})
	}
	k.RunUntil(sc.horizon)
	return tr
}

// record reads the run's outcome.
func (tr trial) record() schedRun {
	out := schedRun{Stats: tr.s.Stats(), Executed: tr.k.Executed, Now: tr.k.Now()}
	for _, j := range tr.jobs {
		out.Jobs = append(out.Jobs, Job{ID: j.ID, Started: j.Started, Finished: j.Finished,
			Width: j.Width, Boosted: j.Boosted, Missed: j.Missed, WorkCycles: j.WorkCycles})
	}
	for _, j := range tr.s.Done() {
		out.DoneIDs = append(out.DoneIDs, j.ID)
	}
	for _, c := range tr.p.Cores {
		out.Hz = append(out.Hz, c.Hz())
	}
	return out
}

func newMachine(k *sim.Kernel, p *platform.Platform, cfg Config) scheduler {
	return NewHybrid(k, p, cfg)
}

func newOracle(k *sim.Kernel, p *platform.Platform, cfg Config) scheduler {
	return newProcHybrid(k, p, cfg)
}

// TestHybridMatchesProcOracle is the differential contract of the
// state-machine scheduler: on random job bags over homogeneous,
// MPCore-like, wireless and core-mix platforms, with zero to three
// time-shared cores, every DVFS level, boosting on and off, varied
// quanta and context-switch costs, jobs arriving before and during the
// run and runs cut short, it must reproduce the goroutine oracle's
// per-job timing and grants, completion order, stats and kernel event
// count exactly, and leave no live process behind.
func TestHybridMatchesProcOracle(t *testing.T) {
	r := xrand.New(23)
	for i := 0; i < 400; i++ {
		sc := randScenario(r)
		machine, oracle := sc.play(newMachine), sc.play(newOracle)
		got, want := machine.record(), oracle.record()
		oracle.s.(*procHybrid).Close()
		if n := machine.k.LiveProcs(); n != 0 {
			t.Fatalf("scenario %d: %d live processes after the run", i, n)
		}
		if reflect.DeepEqual(got, want) {
			continue
		}
		for x := range got.Jobs {
			if !reflect.DeepEqual(got.Jobs[x], want.Jobs[x]) {
				t.Errorf("job %d: got %+v, want %+v", x, got.Jobs[x], want.Jobs[x])
				break
			}
		}
		t.Fatalf("scenario %d (%s, %d TS cores, dvfs %d, %+v) diverged from the oracle:\ndone  %v stats %+v events %d\nwant  %v stats %+v events %d",
			i, sc.plat, sc.nTS, sc.dvfs, sc.cfg, got.DoneIDs, got.Stats, got.Executed, want.DoneIDs, want.Stats, want.Executed)
	}
}

// TestStartedIsFirstDispatch: a sequential job submitted at t=0 and
// preempted three times keeps the start of its first slice.
func TestStartedIsFirstDispatch(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 1), DefaultConfig())
	j := &Job{Kind: Sequential, WorkCycles: 2_000_000} // four 0.5 ms slices at 1 GHz
	s.Submit(j)
	k.RunUntil(100 * sim.Millisecond)
	if j.Finished < 2*sim.Millisecond {
		t.Fatalf("job finished at %v, want four slices", j.Finished)
	}
	if j.Started != 0 {
		t.Fatalf("Started = %v, want 0 (the first dispatch)", j.Started)
	}
}

// TestNoProcessMachinery holds the scheduler to kernel events: the
// package's non-test code names no process, signal, spawn or
// closure-scheduling call.
func TestNoProcessMachinery(t *testing.T) {
	banned := map[string]bool{"Proc": true, "Signal": true, "NewSignal": true, "Spawn": true,
		"SpawnAfter": true, "Schedule": true, "ScheduleP": true, "ScheduleProc": true, "At": true, "Func": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				t.Errorf("%s: uses %s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// benchBag is the BenchmarkHybrid job bag, shaped like a sweep's
// jobs16 point: 16 jobs at t=0, ~70% parallel, half with deadlines.
func benchBag() scenario {
	r := xrand.New(16)
	sc := scenario{plat: "wireless", dvfs: 1, nTS: 1, cfg: DefaultConfig(), horizon: sim.Second}
	for i := 0; i < 16; i++ {
		j := Job{Kind: Sequential, WorkCycles: r.Range(500_000, 4_000_000), MaxWidth: 1}
		if r.Bool(0.7) {
			j.Kind, j.MaxWidth = Parallel, 1+r.Intn(4)
		}
		if r.Bool(0.5) {
			j.Deadline = sim.Time(r.Range(int64(2*sim.Millisecond), int64(20*sim.Millisecond)))
		}
		sc.jobs = append(sc.jobs, j)
	}
	return sc
}

// BenchmarkHybrid runs one 16-job bag on the wireless platform,
// platform build included: "callback" is the state machine, "proc" the
// goroutine oracle on the same bag. CI guards the callback/proc ratio
// and callback allocs/op (limits in docs/performance.md).
func BenchmarkHybrid(b *testing.B) {
	sc := benchBag()
	if done := len(sc.play(newMachine).s.Done()); done != len(sc.jobs) {
		b.Fatalf("bag completed %d/%d jobs", done, len(sc.jobs))
	}
	b.Run("callback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.play(newMachine)
		}
	})
	b.Run("proc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.play(newOracle).s.(*procHybrid).Close()
		}
	})
}
