package dse

import (
	"fmt"
	"time"

	"mpsockit/internal/mapping"
	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/rtos"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/vp"
	"mpsockit/internal/workload"
	"mpsockit/internal/xrand"
)

// classArea is the relative silicon cost of one PE of each class
// (RISC control core = 1), used by the area proxy.
var classArea = map[platform.PEClass]float64{
	platform.RISC: 1.0,
	platform.DSP:  1.3,
	platform.VLIW: 2.2,
	platform.ACC:  0.7,
	platform.CTRL: 1.8,
}

// peArea returns one core's area-proxy contribution: its class weight
// plus local memory. A class missing from classArea is a loud
// evaluation error — silently scoring an unknown class as zero would
// deflate the area objective and let nonexistent silicon dominate
// Pareto fronts.
func peArea(c *platform.Core) (float64, error) {
	w, ok := classArea[c.Class]
	if !ok {
		return 0, fmt.Errorf("dse: no area weight for PE class %v (core %d)", c.Class, c.ID)
	}
	return w + 0.2*float64(c.L1Bytes+c.L2Bytes)/float64(256<<10), nil
}

// Evaluate scores one design point on a fresh context. It never
// panics the sweep: evaluation failures come back in Result.Err.
// Callers evaluating many points should construct one EvalContext per
// goroutine and use its Evaluate method, which reuses kernels,
// platforms and workload prototypes across points.
func Evaluate(p Point) Result {
	return NewEvalContext().Evaluate(p)
}

// Evaluate scores one design point using the context's reused
// kernels, platform, graph prototypes and mapping scratch. It never
// panics the sweep: evaluation failures come back in Result.Err.
// Results are byte-identical to a fresh-context evaluation.
func (c *EvalContext) Evaluate(p Point) Result {
	// Latency is observed wall-clock around the whole evaluation; the
	// clock is read only when this fidelity has a live histogram, and
	// nothing read here feeds back into the result bytes.
	var start time.Time
	h := c.obs.latency(p.Fidelity)
	if h != nil {
		start = time.Now()
	}
	m, err := c.evaluate(p)
	r := Result{Point: p, Metrics: m}
	if err != nil {
		r.Err = err.Error()
		c.obs.Errors.Inc()
	}
	c.obs.Points.Inc()
	if h != nil {
		h.Observe(time.Since(start).Microseconds())
	}
	if c.obs.SimExecuted != nil {
		c.obs.absorb(&c.kBase, c.k)
	}
	return r
}

func (c *EvalContext) evaluate(p Point) (Metrics, error) {
	if len(p.Apps) == 1 {
		// A multi scenario of one application is that application:
		// normalize before evaluation, so the point is byte-identical
		// in metrics to the corresponding single-workload point.
		a := p.Apps[0]
		p.Workload, p.N, p.WorkloadSeed, p.Apps = a.Kind, a.N, a.Seed, nil
	}
	k := reuseKernel(&c.k)
	plat, area, err := c.platform(k, p.Plat)
	if err != nil {
		return Metrics{}, err
	}
	if p.Workload == "jobs" {
		return evalJobs(p, k, plat, area)
	}
	// Single and multi-app points share one evaluation body: a multi
	// point maps and executes the cached union graph of its scenario
	// (spans non-nil) where a single point uses its workload graph
	// directly; everything else — heuristics, fidelities, metrics,
	// vp refinement — is identical by construction.
	g, spans, worstLoad, err := c.pointGraph(p)
	if err != nil {
		return Metrics{}, err
	}
	heur, err := mapping.ParseHeuristic(p.Heuristic)
	if err != nil {
		return Metrics{}, err
	}
	opt := mapping.Options{Heuristic: heur, Seed: p.Seed}
	units := 1
	if p.Fidelity == "pipe" {
		// Streaming fidelity optimizes for throughput, the MAPS
		// objective for multimedia codecs.
		opt.Objective = mapping.Throughput
		units = p.Iterations
		if units <= 0 {
			units = 8
		}
	}
	c.me.Bind(g, plat)
	a, err := c.me.Map(opt)
	if err != nil {
		return Metrics{}, err
	}
	var stats mapping.ExecStats
	var appMk []sim.Time
	switch p.Fidelity {
	case "mvp", "vp", "cal":
		if spans != nil {
			stats, appMk, err = c.ex.ExecuteMulti(a, spans)
		} else {
			stats, err = c.ex.Execute(a)
		}
	case "pipe":
		stats, err = c.ex.ExecutePipelined(a, units)
	default:
		return Metrics{}, fmt.Errorf("dse: unknown fidelity %q", p.Fidelity)
	}
	if err != nil {
		return Metrics{}, err
	}
	m := metricsFrom(plat, stats, area, units)
	m.SimEvents = k.Executed
	if spans != nil {
		m.WorstLoadCPS = worstLoad
		// Per-app makespans are task-level measurements; at vp
		// fidelity the headline makespan is ISS-refined below and the
		// task-level split would contradict it, so it is not emitted.
		if p.Fidelity == "mvp" {
			for _, mk := range appMk {
				m.AppMakespanPS = append(m.AppMakespanPS, int64(mk))
			}
		}
	}
	if p.Fidelity == "vp" {
		if err := c.refineVP(p, stats, units, &m); err != nil {
			return Metrics{}, err
		}
	}
	if p.Fidelity == "cal" {
		if err := c.calibrate(p, plat, stats, &m, units); err != nil {
			return Metrics{}, err
		}
	}
	return m, nil
}

// pointGraph returns the point's task graph: the cached union graph
// with spans and worst-case load for a multi-app scenario, the cached
// workload prototype otherwise.
func (c *EvalContext) pointGraph(p Point) (*taskgraph.Graph, []taskgraph.Span, float64, error) {
	if len(p.Apps) > 1 {
		mu, err := c.multiScenario(p)
		if err != nil {
			return nil, nil, 0, err
		}
		return mu.graph, mu.spans, mu.worstLoad, nil
	}
	g, err := c.graph(p)
	return g, nil, 0, err
}

// buildPlatform constructs the spec'd platform on kernel k and
// returns it with its area proxy.
func buildPlatform(k *sim.Kernel, spec PlatSpec) (*platform.Platform, float64, error) {
	n := spec.CoreCount()
	if n <= 0 {
		return nil, 0, fmt.Errorf("dse: platform %v has no cores", spec)
	}
	var fabric platform.Fabric
	var fabricArea float64
	switch spec.Fabric {
	case "mesh":
		m := noc.MeshFor(k, n)
		fabric = m
		fabricArea = 0.08 * float64(m.W*m.H)
	case "bus":
		fabric = noc.DefaultBus(k)
		fabricArea = 0.4
	default:
		return nil, 0, fmt.Errorf("dse: unknown fabric %q", spec.Fabric)
	}
	var plat *platform.Platform
	switch spec.Kind {
	case "homog":
		plat = platform.NewHomogeneous(k, n, 1_000_000_000, fabric)
	case "mpcore":
		plat = platform.NewMPCoreLike(k, n, fabric)
	case "celllike":
		plat = platform.NewCellLike(k, spec.Cores, fabric)
	case "wireless":
		plat = platform.NewWirelessTerminal(k, fabric)
	case "custom":
		plat = platform.NewMix(k, spec.Mix, fabric)
	default:
		return nil, 0, fmt.Errorf("dse: unknown platform kind %q", spec.Kind)
	}
	area := fabricArea
	for _, c := range plat.Cores {
		// Pin the swept DVFS operating point as the nominal level and
		// zero the transition counter so metrics only record runtime
		// switches (e.g. boosts by the RTOS governor).
		lvl := spec.DVFS
		if lvl >= len(c.Levels) {
			lvl = len(c.Levels) - 1
		}
		if lvl < 0 {
			lvl = 0
		}
		if err := c.SetLevel(lvl); err != nil {
			return nil, 0, err
		}
		c.SetNominal()
		c.FreqSwitches = 0
		a, err := peArea(c)
		if err != nil {
			return nil, 0, err
		}
		area += a
	}
	if spec.Mem != "" {
		ms, err := mem.ParseSpec(spec.Mem)
		if err != nil {
			return nil, 0, fmt.Errorf("dse: platform %v: %w", spec, err)
		}
		access, bpns := plat.MemTiming()
		plat.Mem = ms.Build(access, bpns)
	}
	return plat, area, nil
}

// buildGraph returns the point's workload task graph; dispatch lives
// in internal/workload so multi-app scenarios compose the exact
// instances single points evaluate.
func buildGraph(p Point) (*taskgraph.Graph, error) {
	return workload.AppTaskGraph(p.Workload, p.N, p.WorkloadSeed)
}

// coreEnergy is the per-core energy proxy over one run: dynamic power
// ∝ V²f with V tracking f (so busy·f³) plus idle leakage ∝ f. One
// model for every workload kind, so cross-workload Pareto comparisons
// stay consistent.
func coreEnergy(busyS, makespanS, ghz float64) float64 {
	return busyS*ghz*ghz*ghz + (makespanS-busyS)*0.05*ghz
}

// freqSwitchCharge is the fixed energy charged per DVFS transition.
const freqSwitchCharge = 1e-6

// metricsFrom folds an execution record into the metric vector.
func metricsFrom(plat *platform.Platform, stats mapping.ExecStats, area float64, units int) Metrics {
	m := Metrics{
		Makespan:     stats.Makespan,
		BusyPS:       int64(stats.BusyTotal()),
		Area:         area,
		NoCTransfers: stats.Fabric.Transfers,
		NoCWaitPS:    int64(stats.Fabric.Wait),
		MemTransfers: stats.Mem.Transfers,
		MemWaitPS:    int64(stats.Mem.Wait),
	}
	if stats.Makespan > 0 {
		m.ThroughputHz = float64(units) / stats.Makespan.Seconds()
	}
	// Utilization is each PE's busy fraction of the makespan (zero
	// when the makespan is), averaged over the PEs.
	if stats.Makespan > 0 {
		for _, b := range stats.PEBusy {
			u := float64(b) / float64(stats.Makespan)
			m.UtilMean += u
			if u > m.UtilMax {
				m.UtilMax = u
			}
		}
	}
	if n := len(stats.PEBusy); n > 0 {
		m.UtilMean /= float64(n)
	}
	makespanS := stats.Makespan.Seconds()
	for i, c := range plat.Cores {
		var busyS float64
		if i < len(stats.PEBusy) {
			busyS = stats.PEBusy[i].Seconds()
		}
		m.Energy += coreEnergy(busyS, makespanS, float64(c.Hz())/1e9)
		m.FreqSwitches += c.FreqSwitches
	}
	m.Energy += float64(m.FreqSwitches) * freqSwitchCharge
	return m
}

// The vp tier re-measures each busy PE's compute as a register-only
// MR32 loop on an ISS core of vp.DefaultConfig (100 MHz, TimingRISC):
//
//	      li   r10, N        ; addi when N < 1<<15, lui+ori beyond
//	loop: addi r8, r8, 1
//	      mul  r9, r8, r8
//	      bne  r8, r10, loop
//	      halt
//
// The loop touches no memory and the cores never interact, so what
// the platform measures is closed-form in (N, quantum): runLoops
// computes it, and the ISS run survives only as the test oracle
// (TestVPRefineOracle).
const (
	loopIterCycles = 6 // addi(1) + mul(3) + bne(2)
	loopHaltCycles = 4 // halt is CostSys
	// maxVPCores is the refinement platform's width: the busiest PEs
	// run on up to 16 ISS cores, the tail PEs are below the
	// bottleneck anyway.
	maxVPCores = 16
	// vpWindow is the step in which vp.VP.RunUntilHalted advances the
	// kernel; it checks for halted cores only between windows.
	vpWindow = 10 * sim.Microsecond
)

// vpCyclePeriod is the refinement cores' clock period.
var vpCyclePeriod = sim.Time(int64(sim.Second) / vp.DefaultConfig(1).HzPer)

// vpRun is what vp.VP.RunUntilHalted leaves behind after running the
// refinement loops on a fresh platform: the kernel time it stopped
// at, the kernel events executed, the instructions retired, and
// whether every core halted before the deadline.
type vpRun struct {
	now    sim.Time
	events uint64
	instr  uint64
	halted bool
}

// loopCycles returns the cycles the first k instructions of the loop
// program take, for k short of its final halt; lead is the li
// expansion's length.
func loopCycles(lead, k int64) int64 {
	if k <= lead {
		return k
	}
	k -= lead
	c := lead + loopIterCycles*(k/3)
	switch k % 3 {
	case 1:
		c++ // addi
	case 2:
		c += 4 // addi + mul
	}
	return c
}

// runLoops returns the vp run of one refinement loop per core — core i
// spins iters[i] iterations, for i < cores — at the given quantum,
// exactly as RunUntilHalted(deadline) reports it. A core executes
// its n instructions in ceil(n/quantum) bursts, one kernel event
// each (the first is the process start at time 0); burst j starts
// after the cycles of its first j·quantum instructions, and the core
// halts in its last burst, whose wake-up event fires at the end of
// the program. RunUntilHalted stops at the end of the first window
// (at least one) by which every core has started its halting burst,
// having executed every event up to that instant; it gives up before
// a window that would start at or past the deadline. When it gives
// up, only now and halted are set: the refinement fails the point.
// A variable so the oracle tests can run the ISS instead.
var runLoops = func(iters [maxVPCores]int64, cores, quantum int, deadline sim.Time) vpRun {
	var r vpRun
	var ends [maxVPCores]sim.Time
	var lastStart sim.Time
	q := int64(quantum)
	for i := 0; i < cores; i++ {
		lead := int64(1)
		if iters[i] >= 1<<15 {
			lead = 2
		}
		n := lead + 3*iters[i] + 1
		bursts := (n + q - 1) / q
		if s := sim.Time(loopCycles(lead, (bursts-1)*q)) * vpCyclePeriod; s > lastStart {
			lastStart = s
		}
		ends[i] = sim.Time(lead+loopIterCycles*iters[i]+loopHaltCycles) * vpCyclePeriod
		r.instr += uint64(n)
		r.events += uint64(bursts)
	}
	windows := (lastStart + vpWindow - 1) / vpWindow
	if windows < 1 {
		windows = 1
	}
	if (windows-1)*vpWindow >= deadline {
		r = vpRun{}
		if deadline > 0 {
			r.now = (deadline + vpWindow - 1) / vpWindow * vpWindow
		}
		return r
	}
	r.now, r.halted = windows*vpWindow, true
	for _, end := range ends[:cores] {
		if end <= r.now {
			r.events++ // the halted core's final wake-up
		}
	}
	return r
}

// refineVP replaces m's task-level makespan, throughput, event and
// instruction counts with the vp refinement of stats. Like
// metricsFrom it reports zero throughput for a zero makespan: +Inf
// would make the JSON encoding of the whole record fail rather than
// the one point.
func (c *EvalContext) refineVP(p Point, stats mapping.ExecStats, units int, m *Metrics) error {
	makespan, events, instr, err := c.vpRefine(p, stats)
	if err != nil {
		return err
	}
	m.Makespan, m.SimEvents, m.VPInstr = makespan, events, instr
	m.ThroughputHz = 0
	if makespan > 0 {
		m.ThroughputHz = float64(units) / makespan.Seconds()
	}
	return nil
}

// vpRefine re-measures the point's compute at instruction granularity:
// each busy PE's compute time becomes a calibrated MR32 loop on an ISS
// core of a temporally-decoupled virtual platform (vp.Config.Quantum =
// Point.Quantum), computed in closed form by runLoops. The refined
// makespan is the VP-measured compute of the bottleneck core plus the
// task-level communication slack; the returned event/instruction
// counts expose the fidelity-versus-cost trade of experiment E13.
func (c *EvalContext) vpRefine(p Point, stats mapping.ExecStats) (sim.Time, uint64, uint64, error) {
	// busy keeps the maxVPCores largest busy times, descending. The
	// run depends only on their values, so ties at the cut are
	// interchangeable.
	var busy [maxVPCores]sim.Time
	n := 0
	for _, b := range stats.PEBusy {
		if b <= 0 || (n == maxVPCores && b <= busy[n-1]) {
			continue
		}
		if n < maxVPCores {
			n++
		}
		i := n - 1
		for ; i > 0 && busy[i-1] < b; i-- {
			busy[i] = busy[i-1]
		}
		busy[i] = b
	}
	if n == 0 {
		return stats.Makespan, 0, 0, nil
	}
	maxBusy := busy[0]
	var iters [maxVPCores]int64
	for i, b := range busy[:n] {
		it := int64(b) / int64(vpCyclePeriod) / loopIterCycles
		if it < 1 {
			it = 1
		}
		if it >= 1<<32 {
			// The ISS loop counter is a 32-bit register.
			return 0, 0, 0, fmt.Errorf("dse: vp refinement loop bound %d overflows 32 bits (point %d)", it, p.ID)
		}
		iters[i] = it
	}
	quantum := p.Quantum
	if quantum < 1 {
		quantum = 1
	}
	run := runLoops(iters, n, quantum, stats.Makespan+maxBusy+sim.Millisecond)
	if !run.halted {
		return 0, 0, 0, fmt.Errorf("dse: vp refinement did not halt (point %d)", p.ID)
	}
	slack := stats.Makespan - maxBusy
	return slack + run.now, run.events, run.instr, nil
}

// evalJobs scores a jobs design point: a deterministic bag of moldable
// parallel and sequential jobs submitted to the section II-B hybrid
// time-/space-shared RTOS scheduler, with reactive DVFS boosting. The
// mapping heuristic is not used — placement is the scheduler's.
func evalJobs(p Point, k *sim.Kernel, plat *platform.Platform, area float64) (Metrics, error) {
	// One time-shared core for sequential jobs; the rest gang-schedule.
	for i, c := range plat.Cores {
		c.SpaceShared = i != 0
	}
	s := rtos.NewHybrid(k, plat, rtos.DefaultConfig())
	r := xrand.New(p.WorkloadSeed)
	n := p.N
	if n <= 0 {
		n = 32
	}
	var totalCycles int64
	for i := 0; i < n; i++ {
		j := &rtos.Job{
			Name:       fmt.Sprintf("job%d", i),
			Kind:       rtos.Sequential,
			WorkCycles: r.Range(500_000, 4_000_000),
			MaxWidth:   1,
		}
		if r.Bool(0.7) {
			j.Kind = rtos.Parallel
			j.MaxWidth = 1 + r.Intn(4)
		}
		if r.Bool(0.5) {
			j.Deadline = sim.Time(r.Range(int64(2*sim.Millisecond), int64(20*sim.Millisecond)))
		}
		totalCycles += j.WorkCycles
		s.Submit(j)
	}
	// Bound the run by the bag itself: all work serialized onto the
	// slowest core, with generous headroom for context switches and
	// scheduling gaps. The kernel stops as soon as the bag drains, so
	// a large bound costs nothing — a fixed cap would spuriously fail
	// big bags on slow/low-DVFS platforms.
	minHz := plat.Cores[0].Hz()
	for _, c := range plat.Cores {
		if c.Hz() < minHz {
			minHz = c.Hz()
		}
	}
	bound := sim.Time(float64(totalCycles)/float64(minHz)*float64(sim.Second))*4 + 100*sim.Millisecond
	k.RunUntil(bound)
	st := s.Stats()
	if st.Completed != n {
		return Metrics{}, fmt.Errorf("dse: jobs run completed %d/%d", st.Completed, n)
	}
	var makespan sim.Time
	for _, j := range s.Done() {
		if j.Finished > makespan {
			makespan = j.Finished
		}
	}
	m := Metrics{
		Makespan: makespan,
		BusyPS:   int64(st.BusyTime),
		Area:     area,
		MissRate: st.MissRate(),
	}
	m.SimEvents = k.Executed
	fs := platform.FabricStatsOf(plat.Fabric)
	m.NoCTransfers = fs.Transfers
	m.NoCWaitPS = int64(fs.Wait)
	if makespan > 0 {
		m.ThroughputHz = float64(n) / makespan.Seconds()
		// Aggregate utilization: busy core-seconds over the run's
		// core-seconds.
		m.UtilMean = st.BusyTime.Seconds() / (makespan.Seconds() * float64(len(plat.Cores)))
		m.UtilMax = m.UtilMean
	}
	makespanS := makespan.Seconds()
	busyPer := st.BusyTime.Seconds() / float64(len(plat.Cores))
	for _, c := range plat.Cores {
		m.Energy += coreEnergy(busyPer, makespanS, float64(c.Hz())/1e9)
		m.FreqSwitches += c.FreqSwitches
	}
	m.Energy += float64(m.FreqSwitches) * freqSwitchCharge
	return m, nil
}
