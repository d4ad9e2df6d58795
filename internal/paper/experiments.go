package paper

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"mpsockit/internal/amdahl"
	"mpsockit/internal/cic"
	"mpsockit/internal/core"
	"mpsockit/internal/dataflow"
	"mpsockit/internal/debug"
	"mpsockit/internal/isa"
	"mpsockit/internal/mapping"
	"mpsockit/internal/noc"
	"mpsockit/internal/osip"
	"mpsockit/internal/partition"
	"mpsockit/internal/platform"
	"mpsockit/internal/recode"
	"mpsockit/internal/rtos"
	"mpsockit/internal/script"
	"mpsockit/internal/sim"
	"mpsockit/internal/targets"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/ttdd"
	"mpsockit/internal/vp"
	"mpsockit/internal/workload"
)

// --- E1: homogeneous ISA scales; a-priori partitioning inhibits
// scalability (section II-A) ---

// E1Row is E1's speedups at one core count.
type E1Row struct {
	Cores         int
	Homog, Hetero float64
}

// E1 compares a bag of equal tasks over n interchangeable cores with
// the same bag statically partitioned 70/30 across two ISA pools that
// hold 30/70 of the cores (a mismatch).
func E1() []E1Row {
	var rows []E1Row
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		het := amdahl.HeteroSpeedup(amdahl.HeteroConfig{FracA: 0.7, ShareA: 0.3}, n)
		rows = append(rows, E1Row{n, amdahl.Speedup(0, n), het})
	}
	return rows
}

func tableE1() (string, error) {
	var b strings.Builder
	b.WriteString("E1: speedup vs cores (homogeneous vs 70/30-mismatched heterogeneous)\ncores  homog  hetero  gap\n")
	for _, r := range E1() {
		fmt.Fprintf(&b, "%5d  %5.1f  %6.1f  %4.1f\n", r.Cores, r.Homog, r.Hetero, r.Homog-r.Hetero)
	}
	return b.String(), nil
}

// --- E2: per-core frequency boost mitigates Amdahl (section II-A) ---

func tableE2() (string, error) {
	var b strings.Builder
	b.WriteString("E2: speedup on 64 cores, plain vs 2x/4x boosted serial phase\nserial%  plain  boost2x  boost4x\n")
	for _, f := range []float64{0.05, 0.10, 0.20, 0.30, 0.50} {
		fmt.Fprintf(&b, "%6.0f%%  %5.2f  %7.2f  %7.2f\n", f*100, amdahl.Speedup(f, 64),
			amdahl.SpeedupBoosted(f, 64, 2), amdahl.SpeedupBoosted(f, 64, 4))
	}
	return b.String(), nil
}

// --- E3: reactive hybrid time-/space-shared scheduling (section II-B) ---

// E3Row is E3 at one offered parallel load: the deadline-miss rates
// without and with boosting, and the boosts applied.
type E3Row struct {
	Jobs                 int
	MissPlain, MissBoost float64
	Boosts               int
}

// E3 runs the hybrid scheduler on 8 cores (2 time-shared) under
// sequential background load plus bursts of parallel jobs with
// deadlines, without and with boosting tight jobs.
func E3() []E3Row {
	var rows []E3Row
	for _, jobs := range []int{4, 8, 12, 16, 24} {
		m0, _ := runE3(jobs, false)
		m1, n1 := runE3(jobs, true)
		rows = append(rows, E3Row{jobs, m0, m1, n1})
	}
	return rows
}

func runE3(parJobs int, boost bool) (missRate float64, boosts int) {
	k := sim.NewKernel()
	p := platform.NewHomogeneous(k, 8, 1_000_000_000, noc.MeshFor(k, 8))
	p.Cores[0].SpaceShared = false
	p.Cores[1].SpaceShared = false
	cfg := rtos.DefaultConfig()
	cfg.BoostWhenTight = boost
	s := rtos.NewHybrid(k, p, cfg)
	for i := 0; i < 6; i++ {
		s.Submit(&rtos.Job{Kind: rtos.Sequential, WorkCycles: 2_000_000})
	}
	for i := 0; i < parJobs; i++ {
		k.Schedule(sim.Time(i)*sim.Millisecond/2, func() {
			s.Submit(&rtos.Job{Kind: rtos.Parallel, WorkCycles: 6_000_000, MaxWidth: 4,
				Deadline: k.Now() + 4*sim.Millisecond})
		})
	}
	k.RunUntil(500 * sim.Millisecond)
	st := s.Stats()
	return st.MissRate(), st.Boosts
}

func tableE3() (string, error) {
	var b strings.Builder
	b.WriteString("E3: reactive hybrid scheduler, miss rate vs offered parallel load\njobs  miss(noboost)  miss(boost)  boosts\n")
	for _, r := range E3() {
		fmt.Fprintf(&b, "%4d  %12.2f%%  %10.2f%%  %6d\n", r.Jobs, r.MissPlain*100, r.MissBoost*100, r.Boosts)
	}
	return b.String(), nil
}

// --- E4: time-triggered corrupts under WCET violation, data-driven
// does not (section III) ---

// E4Row is E4's time-triggered and data-driven runs at one jitter.
type E4Row struct {
	Jitter float64
	TT, DD *ttdd.Metrics
}

// E4 runs the car-radio chain for 400 periods with a 10% WCET margin
// under both executors, swept over execution-time jitter.
func E4() ([]E4Row, error) {
	var rows []E4Row
	for _, j := range []float64{0.0, 0.15, 0.3, 0.45, 0.6} {
		spec := ttdd.CarRadioSpec(j, 1.1, 400, 42)
		tt, err := ttdd.RunTimeTriggered(spec)
		if err != nil {
			return nil, err
		}
		dd, err := ttdd.RunDataDriven(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{j, tt, dd})
	}
	return rows, nil
}

func tableE4() (string, error) {
	rows, err := E4()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E4: car radio, 400 periods, WCET margin 10%\njitter  TT-overruns  TT-corrupt  DD-corrupt  DD-latency(max)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f  %11d  %10d  %10d  %15v\n",
			r.Jitter, r.TT.Overruns, r.TT.Corruptions, r.DD.Corruptions, r.DD.MaxLatency)
	}
	return b.String(), nil
}

// --- E5: buffer capacities under back-pressure (section III ref [5]) ---

func tableE5() (string, error) {
	g := workload.CarRadioGraph()
	selfPeriod, err := g.SelfTimedPeriod(64)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E5: car-radio CSDF, self-timed sink period %.0f ps\nsource-period  total-buffer-tokens  per-edge\n", selfPeriod)
	for _, mult := range []float64{1.1, 1.3, 1.6, 2.0, 3.0} {
		// The source fires 4 times per sink firing (repetition vector
		// source:sink is 8:2), so its period is a quarter of the sink's.
		period := int64(selfPeriod * mult / 4)
		if caps, err := g.MinBufferSizes(period, 24); err != nil {
			fmt.Fprintf(&b, "%13d  infeasible\n", period)
		} else {
			fmt.Fprintf(&b, "%13d  %19d  %v\n", period, dataflow.TotalTokens(caps), caps)
		}
	}
	return b.String(), nil
}

// --- E6: MAPS JPEG partitioning speedup (section IV) ---

// JPEGFlow takes the JPEG encoder through the MAPS flow: partitioned
// into at most maxTasks tasks of at least 500 RISC cycles, list-mapped
// onto the wireless-terminal platform and simulated for frames
// pipelined iterations. E6 and E13 run it.
func JPEGFlow(maxTasks, frames int) (*core.Flow, error) {
	f, err := core.NewFlow(workload.JPEGSourceCIR)
	if err != nil {
		return nil, err
	}
	if err := f.Partition("main", partition.Options{MaxTasks: maxTasks, MinTaskCycles: 500}); err != nil {
		return nil, err
	}
	if err := f.MapTo(core.DefaultPlatform(), mapping.Options{Heuristic: mapping.List}); err != nil {
		return nil, err
	}
	f.Iterations = frames
	return f, f.Simulate()
}

func tableE6() (string, error) {
	var b strings.Builder
	b.WriteString("E6: MAPS on the JPEG pipeline (wireless-terminal platform, 32 frames)\nmax-tasks  tasks  speedup\n")
	for _, mt := range []int{1, 2, 3, 4, 6} {
		f, err := JPEGFlow(mt, 32)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%9d  %5d  %6.2fx\n", mt, len(f.Part.Graph.Tasks), f.Speedup())
	}
	return b.String(), nil
}

// --- E7: OSIP vs RISC software scheduler (section IV) ---

// E7Row is E7's PE utilization under each dispatcher at one task
// granularity (cycles per task).
type E7Row struct {
	Granularity int64
	RISC, OSIP  float64
}

// E7 dispatches 1000 tasks onto 8 PEs from a RISC software scheduler
// and from the OSIP hardware dispatcher, swept over task granularity.
func E7() ([]E7Row, error) {
	var rows []E7Row
	for _, g := range []int64{500, 1000, 5000, 20_000, 100_000, 500_000} {
		r, o, err := osip.Compare(8, 1000, g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E7Row{g, r.Utilization(), o.Utilization()})
	}
	return rows, nil
}

func tableE7() (string, error) {
	rows, err := E7()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E7: dispatcher comparison, 8 PEs, 1000 tasks\ngranularity(cycles)  util(RISC-SW)  util(OSIP)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%19d  %12.1f%%  %9.1f%%\n", r.Granularity, r.RISC*100, r.OSIP*100)
	}
	return b.String(), nil
}

// --- E8: multi-application concurrency graph -> worst-case load
// (section IV) ---

// E8Scenario is the wireless-terminal scenario: four applications and
// which of them may run at the same time.
func E8Scenario() *taskgraph.ConcurrencyGraph {
	cg := taskgraph.NewConcurrencyGraph()
	mk := func(name string, cycles int64, period sim.Time, rt taskgraph.RTClass) *taskgraph.App {
		g := taskgraph.NewGraph(name)
		g.AddTask(&taskgraph.Task{Name: name, WCET: map[platform.PEClass]int64{platform.RISC: cycles}})
		return cg.AddApp(&taskgraph.App{Name: name, Graph: g, Period: period, RT: rt})
	}
	radio := mk("dab-radio", 2_000_000, 10*sim.Millisecond, taskgraph.HardRT)
	video := mk("video-dec", 8_000_000, 33*sim.Millisecond, taskgraph.SoftRT)
	ui := mk("gui", 400_000, 40*sim.Millisecond, taskgraph.BestEffort)
	call := mk("voice-call", 3_000_000, 20*sim.Millisecond, taskgraph.HardRT)
	cg.MarkConcurrent(radio, video)
	cg.MarkConcurrent(radio, ui)
	cg.MarkConcurrent(video, ui)
	cg.MarkConcurrent(call, ui)
	cg.MarkConcurrent(call, radio)
	return cg
}

func tableE8() (string, error) {
	cg := E8Scenario()
	var b strings.Builder
	b.WriteString("E8: wireless-terminal scenario, worst-case concurrent load\n")
	for _, cl := range cg.MaximalCliques() {
		var sum float64
		names := make([]string, len(cl))
		for i, id := range cl {
			sum += cg.Apps[id].Load(platform.RISC)
			names[i] = cg.Apps[id].Name
		}
		fmt.Fprintf(&b, "  clique %-28s %7.1f Mcyc/s\n", strings.Join(names, "+"), sum/1e6)
	}
	load, clique := cg.WorstCaseLoad(platform.RISC)
	fmt.Fprintf(&b, "  worst case: %.1f Mcyc/s (clique %v) -> need %.1f cores @400MHz\n", load/1e6, clique, load/400e6)
	return b.String(), nil
}

// --- E9: CIC retargetability, Cell-like vs SMP (section V) ---

// E9Target is the H.264-like CIC spec translated to and run on one
// target.
type E9Target struct {
	Program *cic.TargetProgram
	Stats   *cic.RunStats
}

// E9Result is one CIC spec on the Cell-like and the SMP target, next
// to workload.EncodeVideo's stream for the same frames. Identical
// reports whether both targets emit the same stream, and
// MatchesSequential whether it is also the sequential encoder's.
type E9Result struct {
	Cell, SMP                    E9Target
	Sequential                   []int32
	Identical, MatchesSequential bool
}

// E9 translates one H.264-like CIC spec (64x48, 3 frames, 3 encoder
// workers) to a Cell-like and an SMP target, runs both, and compares
// their streams with each other and with the sequential encoder.
func E9() (*E9Result, error) {
	run := func(arch *cic.ArchInfo) (E9Target, error) {
		spec := workload.H264Spec(64, 48, 3, 3, 3, 5)
		m, err := cic.AutoMap(spec, arch)
		if err != nil {
			return E9Target{}, err
		}
		tp, err := cic.Translate(spec, arch, m)
		if err != nil {
			return E9Target{}, err
		}
		stats, err := tp.Run()
		return E9Target{tp, stats}, err
	}
	cell, err := run(targets.CellLike(4))
	if err != nil {
		return nil, err
	}
	smp, err := run(targets.SMP(4))
	if err != nil {
		return nil, err
	}
	r := &E9Result{Cell: cell, SMP: smp, Sequential: workload.EncodeVideo(workload.SyntheticVideo(64, 48, 3, 5), 3)}
	r.Identical = slices.Equal(cell.Stats.Outputs["merge"], smp.Stats.Outputs["merge"])
	r.MatchesSequential = r.Identical && slices.Equal(cell.Stats.Outputs["merge"], r.Sequential)
	return r, nil
}

func tableE9() (string, error) {
	r, err := E9()
	if err != nil {
		return "", err
	}
	if !r.MatchesSequential {
		return "", errors.New("retargetability broken: the targets' streams differ from each other or from the sequential encoder")
	}
	var b strings.Builder
	b.WriteString("E9: one H.264-like CIC spec on two targets\ntarget     makespan     bytes-moved  synthesized-LoC  output\n")
	for _, t := range []struct {
		name string
		E9Target
	}{{"cell-like", r.Cell}, {"smp", r.SMP}} {
		fmt.Fprintf(&b, "%-9s  %-12v %-12d %-16d %d ints\n", t.name,
			t.Stats.Makespan, t.Stats.BytesMoved, t.Program.GeneratedLines(), len(t.Stats.Outputs["merge"]))
	}
	fmt.Fprintf(&b, "outputs byte-identical: %v (retargetability)\n", r.Identical)
	return b.String(), nil
}

// --- E10: recoder productivity (section VI) ---

// E10Result is the recoder journal's designer actions, the manual
// line edits they stand for, and lines per action.
type E10Result struct {
	Actions, Lines int
	Factor         float64
}

// E10 outlines the stream kernel's first loop into tasks three times
// and splits a task-private vector.
func E10() (E10Result, error) {
	r, err := recode.New(`
		int raw[96];
		int mid[96];
		int total;
		void main() {
			for (int i = 0; i < 96; i++) { raw[i] = i * 5 - 7; }
			for (int i = 0; i < 96; i++) { mid[i] = abs(raw[i]) + 3; }
			total = 0;
			for (int i = 0; i < 96; i++) { total += mid[i]; }
			print(total);
		}
	`)
	if err != nil {
		return E10Result{}, err
	}
	for pass := 0; pass < 3; pass++ {
		if err := r.SplitLoopToTasks("main", 0, 8); err != nil {
			return E10Result{}, err
		}
	}
	if err := r.SplitVector("mid"); err != nil {
		return E10Result{}, err
	}
	return E10Result{len(r.Journal), r.ManualEditEstimate(), r.ProductivityFactor()}, nil
}

func tableE10() (string, error) {
	r, err := E10()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("E10: recoder chain on the stream kernel\n  designer actions: %d\n  equivalent manual line edits: %d\n  lines per action: %.1fx (paper: up to two orders of magnitude)\n",
		r.Actions, r.Lines, r.Factor), nil
}

// --- E11: Heisenbug — intrusive vs virtual-platform debugging
// (section VII) ---

// RaceIters is how often each of E11's two cores increments the
// shared counter.
const RaceIters = 200

// E11Result is the shared-counter race undisturbed, with core 1
// stalled by an intrusive probe, replayed on the VP, and
// semaphore-guarded (RaceIters/2 per core).
type E11Result struct {
	Baseline, Probed, Replay, Fixed *debug.RaceResult
}

// E11 runs the two-core race in the four ways E11Result records.
func E11() (*E11Result, error) {
	src := debug.RaceProgram(RaceIters)
	prog, err := isa.Assemble(src)
	if err != nil {
		return nil, err
	}
	probe := func(v *vp.VP) {
		pr := &debug.IntrusiveProbe{Core: 1, TriggerPC: prog.Symbols["loop"], StallCycles: 5000}
		pr.Install(v)
	}
	var r E11Result
	if r.Baseline, err = debug.RunRace(2, RaceIters, src, nil); err != nil {
		return nil, err
	}
	if r.Probed, err = debug.RunRace(2, RaceIters, src, probe); err != nil {
		return nil, err
	}
	if r.Replay, err = debug.RunRace(2, RaceIters, src, nil); err != nil {
		return nil, err
	}
	r.Fixed, err = debug.RunRace(2, RaceIters/2, debug.SafeProgram(RaceIters/2), nil)
	return &r, err
}

func tableE11() (string, error) {
	r, err := E11()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E11: shared-counter race, 2 cores x 200 increments\nscenario              lost-updates\n")
	fmt.Fprintf(&b, "undisturbed           %12d\n", r.Baseline.LostUpdates)
	fmt.Fprintf(&b, "intrusive probe       %12d  (Heisenbug: defect hidden)\n", r.Probed.LostUpdates)
	fmt.Fprintf(&b, "VP replay             %12d  (identical: %v)\n", r.Replay.LostUpdates, r.Replay.Final == r.Baseline.Final)
	fmt.Fprintf(&b, "semaphore-fixed       %12d\n", r.Fixed.LostUpdates)
	return b.String(), nil
}

// --- E12: watchpoints + scriptable assertions (section VII) ---

// tableE12 exercises the scripted-watchpoint flow: a producer writes a
// rising sequence into a shared buffer; the debug script asserts a
// system-level invariant (value < 200) on every write, without
// touching the target program.
func tableE12() (string, error) {
	prog, err := isa.Assemble(`
		li   s0, 0x40000100
		li   s1, 16
		li   s2, 0
	loop:
		addi s2, s2, 30
		sw   s2, 0(s0)
		addi s0, s0, 4
		addi s1, s1, -1
		bne  s1, r0, loop
		halt
	`)
	if err != nil {
		return "", err
	}
	v := vp.New(sim.NewKernel(), vp.DefaultConfig(1))
	v.LoadProgram(0, prog)
	in := script.New(debug.New(v))
	in.Symbols = prog.Symbols
	v.Start()
	err = in.Run(`
		set limit 200
		watch write 0x40000100 0x40000180
		onwatch 1 {
			assert $hit_value < $limit
		}
		run 1000us
		print hits:1
	`)
	if err != nil {
		return "", err
	}
	var hits int
	if _, err := fmt.Sscanf(in.Out[len(in.Out)-1], "hits:1 = %d", &hits); err != nil {
		return "", fmt.Errorf("reading the watch hit count: %w", err)
	}
	return fmt.Sprintf("E12: scripted watchpoint on shared buffer\n  watch hits: %d\n  assertion violations found: %d (illegal oversized writes)\n",
		hits, len(in.Violations)), nil
}

// --- E13: high-level (MVP) vs cycle-approximate (ISS) simulation ---

// E13Result is the kernel events of the task-level model and the
// instructions the ISS retired, each with the virtual time simulated.
type E13Result struct {
	MVPEvents, ISSInstr uint64
	MVPTime, ISSTime    sim.Time
}

// E13 runs the JPEG task graph pipelined for 8 frames at task level
// and a compute loop on the ISS for 1 ms.
func E13() (E13Result, error) {
	f, err := JPEGFlow(4, 8)
	if err != nil {
		return E13Result{}, err
	}
	instr, _, now, err := runISS(1)
	return E13Result{f.Assign.Platform.Kernel.Executed, instr, f.Measured, now}, err
}

// runISS runs an endless compute loop for 1 ms of virtual time at the
// given temporal-decoupling quantum and reports instructions retired,
// kernel events dispatched and the virtual time reached.
func runISS(quantum int) (instr, events uint64, now sim.Time, err error) {
	prog, err := isa.Assemble(`
	loop:
		addi s0, s0, 1
		mul  s1, s0, s0
		j    loop
	`)
	if err != nil {
		return 0, 0, 0, err
	}
	k := sim.NewKernel()
	cfg := vp.DefaultConfig(1)
	cfg.Quantum = quantum
	v := vp.New(k, cfg)
	v.LoadProgram(0, prog)
	v.Start()
	k.RunUntil(sim.Millisecond)
	return v.Retired(), k.Executed, k.Now(), nil
}

func tableE13() (string, error) {
	r, err := E13()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E13: simulation technology trade-off (same 1ms virtual workload)\nsimulator           work-units            host-cost-proxy\n")
	fmt.Fprintf(&b, "MVP (task-level)    %8d events        %v virtual simulated\n", r.MVPEvents, r.MVPTime)
	fmt.Fprintf(&b, "ISS (instruction)   %8d instructions  %v virtual simulated\n", r.ISSInstr, r.ISSTime)
	fmt.Fprintf(&b, "abstraction ratio: %.0fx fewer units at task level\n", float64(r.ISSInstr)/float64(r.MVPEvents))
	return b.String(), nil
}

// --- E13b: temporal decoupling — the TLM-2.0-style time quantum
// closes part of E13's MVP-vs-ISS gap without leaving the ISS
// abstraction (precise mode stays the default; debugging hooks force
// it) ---

func tableE13b() (string, error) {
	var b strings.Builder
	b.WriteString("E13b: ISS with temporal decoupling (same 1ms virtual workload)\nquantum  instructions  kernel-events  events/instr\n")
	for _, q := range []int{1, 8, 64, 512} {
		instr, events, _, err := runISS(q)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%7d  %12d  %13d  %12.3f\n", q, instr, events, float64(events)/float64(instr))
	}
	return b.String(), nil
}
