package dse

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpsockit/internal/isa"
	"mpsockit/internal/mapping"
	"mpsockit/internal/obs"
	"mpsockit/internal/sim"
	"mpsockit/internal/vp"
	"mpsockit/internal/xrand"
)

// assembleLoop assembles the vp calibration loop that busy-spins for
// iters iterations — the program runLoops models in closed form.
func assembleLoop(iters int64) (*isa.Program, error) {
	return isa.Assemble(fmt.Sprintf(`
	li r10, %d
loop:
	addi r8, r8, 1
	mul  r9, r8, r8
	bne  r8, r10, loop
	halt
`, iters))
}

// issRunLoops is the oracle for runLoops: it actually runs the loops
// to exhaustion on the ISS cores of a fresh virtual platform.
func issRunLoops(iters [maxVPCores]int64, cores, quantum int) vpRun {
	cfg := vp.DefaultConfig(cores)
	cfg.Quantum = quantum
	v := vp.New(sim.NewKernel(), cfg)
	for i := 0; i < cores; i++ {
		prog, err := assembleLoop(iters[i])
		if err != nil {
			panic(err)
		}
		v.LoadProgram(i, prog)
	}
	v.Start()
	v.K.Run()
	return vpRun{now: v.K.Now(), events: v.K.Executed, instr: v.Retired()}
}

// withISS runs the rest of the test with vp refinement backed by the
// ISS run instead of the closed form.
func withISS(t testing.TB) {
	t.Helper()
	saved := runLoops
	runLoops = issRunLoops
	t.Cleanup(func() { runLoops = saved })
}

// loopCase is one refinement run: per-core iteration counts and the
// quantum.
type loopCase struct {
	Iters   [maxVPCores]int64
	Cores   int
	Quantum int
}

// oracleEventBudget bounds one case's ISS kernel events (about half a
// microsecond of host time each), so the oracle stays fast.
const oracleEventBudget = 20000

// Generate draws cases over the shapes that matter to the formula:
// the li expansion edge (32767/32768), bursts of 1, 2, 3, 7, 64 and
// odd quanta, quanta beyond the whole program, and one to sixteen
// cores. Cores beyond the event budget are dropped; a first core
// alone over it has its iterations cut.
func (loopCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := loopCase{Cores: 1 + r.Intn(maxVPCores)}
	quanta := []int{1, 2, 3, 7, 64, 1 + r.Intn(300), 1000}
	c.Quantum = quanta[r.Intn(len(quanta))]
	q := int64(c.Quantum)
	var events int64
	for i := 0; i < c.Cores; i++ {
		var it int64
		switch r.Intn(6) {
		case 0:
			it = 1
		case 1:
			it = 2
		case 2:
			it = 32767
		case 3:
			it = 32768
		case 4:
			it = 1 + r.Int63n(40000)
		default:
			it = 1 + r.Int63n(64)
		}
		if e := (3*it + 3 + q - 1) / q; events+e > oracleEventBudget {
			if i > 0 {
				c.Cores = i
				break
			}
			it = 1 + it%(oracleEventBudget*q/3-2)
		}
		events += (3*it + 3 + q - 1) / q
		c.Iters[i] = it
	}
	return reflect.ValueOf(c)
}

// TestVPRefineOracle: the closed form agrees with the ISS run to
// exhaustion on the kernel time, kernel events and retired
// instructions.
func TestVPRefineOracle(t *testing.T) {
	// seen counts the cases with each shape the formula must cover.
	seen := map[string]int{}
	check := func(c loopCase) bool {
		for _, it := range c.Iters[:c.Cores] {
			if it == 32767 || it == 32768 {
				seen["li edge"]++
			}
			if 3*it+3 < int64(c.Quantum) {
				seen["quantum beyond the program"]++
			}
		}
		if c.Quantum == 1 {
			seen["quantum 1"]++
		}
		if c.Cores == 1 {
			seen["one core"]++
		}
		if c.Cores == maxVPCores {
			seen["sixteen cores"]++
		}
		got := runLoops(c.Iters, c.Cores, c.Quantum)
		want := issRunLoops(c.Iters, c.Cores, c.Quantum)
		if got != want {
			t.Logf("%+v:\nclosed %+v\niss    %+v", c, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"li edge", "quantum beyond the program", "quantum 1", "one core", "sixteen cores"} {
		if seen[shape] == 0 {
			t.Errorf("vacuous: no case with %s", shape)
		}
	}
}

// TestLoopCyclesMatchesISS: on both li expansions the loop program
// halts after L + 6N + 4 cycles of the ISS (L li instructions), the
// halt time runLoops reports.
func TestLoopCyclesMatchesISS(t *testing.T) {
	for _, iters := range []int64{1, 7, 32767, 32768} {
		lead := int64(1)
		if iters >= 1<<15 {
			lead = 2
		}
		prog, err := assembleLoop(iters)
		if err != nil {
			t.Fatal(err)
		}
		v := vp.New(sim.NewKernel(), vp.DefaultConfig(1))
		v.LoadProgram(0, prog)
		cpu := v.CPUs[0]
		var cycles int64
		for !cpu.Halted {
			cycles += cpu.Step()
		}
		if want := lead*loopLeadCycles + loopIterCycles*iters + loopHaltCycles; cycles != want {
			t.Fatalf("N=%d: program takes %d cycles, want %d", iters, cycles, want)
		}
	}
}

// TestVPWithinBoundOfMVP: every vp point of the default preset and
// the ledger spec differs from its mvp twin by end(B) − B, where B is
// the bottleneck PE's busy time and end(B) its refinement loop's halt:
// within (−10 ns, +60 ns] when B ≥ 60 ns, exactly 110 ns − B below
// that, where the loop runs its one-iteration minimum, and nothing
// when no PE computed. B is read off the twin's metrics as
// UtilMax·Makespan.
func TestVPWithinBoundOfMVP(t *testing.T) {
	const ns = sim.Nanosecond
	c := NewEvalContext()
	pairs := 0
	for _, spec := range []string{"default", ledgerSpec} {
		for _, p := range expandSweep(t, spec, 1) {
			if p.Fidelity != "vp" {
				continue
			}
			twin := p
			twin.Fidelity, twin.Quantum = "mvp", 0
			vpr, mvp := c.Evaluate(p), c.Evaluate(twin)
			if vpr.Err != "" || mvp.Err != "" {
				t.Fatalf("point %d: vp error %q, mvp error %q", p.ID, vpr.Err, mvp.Err)
			}
			m := mvp.Metrics.Makespan
			b := sim.Time(math.Round(mvp.Metrics.UtilMax * float64(m)))
			d := vpr.Metrics.Makespan - m
			var ok bool
			switch {
			case b >= 60*ns:
				ok = d > -10*ns && d <= 60*ns
			case b > 0:
				ok = d == 110*ns-b
			default:
				ok = d == 0
			}
			if !ok {
				t.Errorf("%s point %d: vp %v, mvp %v (bottleneck busy %v): vp − mvp = %v out of bound",
					spec, p.ID, vpr.Metrics.Makespan, m, b, d)
			}
			pairs++
		}
	}
	if pairs < 288 {
		t.Fatalf("vacuous: %d vp/mvp pairs", pairs)
	}
}

// vpRefinePoints builds vp-fidelity points at the given quantum
// across platforms of different widths, plus cal points over the
// same shapes: one that is its own probe and one that is not.
func vpRefinePoints(quantum int) []Point {
	mk := func(id int, plat PlatSpec, wl string, n int, heur string) Point {
		return Point{
			ID: id, Seed: seedFor(23, "point", id),
			Plat: plat, Workload: wl, N: n,
			WorkloadSeed: seedFor(23, "wl/"+wl, n),
			Heuristic:    heur, Fidelity: "vp", Quantum: quantum,
		}
	}
	points := []Point{
		mk(0, PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1}, "jpeg", 0, "list"),
		mk(1, PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus", DVFS: 0}, "synth", 12, "anneal"),
		mk(2, PlatSpec{Kind: "celllike", Cores: 6, Fabric: "mesh", DVFS: 2}, "h264", 0, "list"),
		mk(3, PlatSpec{Kind: "homog", Cores: 2, Fabric: "mesh", DVFS: 1}, "synth", 8, "anneal"),
	}
	for i, p := range []Point{points[0], points[2]} {
		probes := []CalProbe{{Heur: "list", Seed: seedFor(23, "probe", i)}, {Heur: p.Heuristic, Seed: p.Seed}}
		for j, q := range []Point{p, p} {
			q.ID = len(points)
			q.Fidelity, q.CalProbes = "cal", probes
			if j == 1 {
				q.Seed++ // not a probe: rescaled by the fit
			}
			points = append(points, q)
		}
	}
	return points
}

// resultBytes marshals an evaluation, failing the test on an error
// result.
func resultBytes(t testing.TB, r Result) string {
	t.Helper()
	if r.Err != "" {
		t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVPRefineMatchesISS: vp- and cal-fidelity results from the closed
// form — on fresh and on reused contexts — are byte-identical to
// evaluations whose refinement runs the loops on the ISS, across
// precise and decoupled quanta.
func TestVPRefineMatchesISS(t *testing.T) {
	for _, quantum := range []int{1, 16, 64} {
		t.Run(fmt.Sprintf("quantum%d", quantum), func(t *testing.T) {
			points := vpRefinePoints(quantum)
			closed := make([]string, len(points))
			reused := NewEvalContext()
			for i, p := range points {
				closed[i] = resultBytes(t, NewEvalContext().Evaluate(p))
				if got := resultBytes(t, reused.Evaluate(p)); got != closed[i] {
					t.Fatalf("reused context diverged on point %d:\nfresh  %s\nreused %s", p.ID, closed[i], got)
				}
			}
			withISS(t)
			iss := NewEvalContext()
			for i, p := range points {
				if got := resultBytes(t, iss.Evaluate(p)); got != closed[i] {
					t.Fatalf("point %d (%s): closed form diverged from the ISS:\niss    %s\nclosed %s",
						p.ID, p.Fidelity, got, closed[i])
				}
			}
		})
	}
}

// TestVPRefineAllocFree: the refinement step allocates nothing.
func TestVPRefineAllocFree(t *testing.T) {
	p, stats := vpRefineBenchInput(t)
	c := NewEvalContext()
	if a := testing.AllocsPerRun(100, func() {
		if _, _, _, err := c.vpRefine(p, stats); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("vpRefine allocates %.0f times per call", a)
	}
}

// TestRefineVPZeroMakespan: an execution with zero makespan and no
// busy PE refines to zero throughput, as metricsFrom reports it, not
// +Inf, and the record still encodes; a live execution keeps
// units/makespan.
func TestRefineVPZeroMakespan(t *testing.T) {
	p, stats := vpRefineBenchInput(t)
	c := NewEvalContext()
	m := Metrics{ThroughputHz: 123}
	if err := c.refineVP(p, mapping.ExecStats{PEBusy: make([]sim.Time, 4)}, 8, &m); err != nil {
		t.Fatal(err)
	}
	if m.Makespan != 0 || m.ThroughputHz != 0 || m.SimEvents != 0 {
		t.Fatalf("zero-makespan refinement: makespan %v, throughput %v, events %d", m.Makespan, m.ThroughputHz, m.SimEvents)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("zero-makespan record does not encode: %v", err)
	}
	if err := c.refineVP(p, stats, 8, &m); err != nil {
		t.Fatal(err)
	}
	if m.Makespan <= 0 || m.ThroughputHz != 8/m.Makespan.Seconds() {
		t.Fatalf("refined makespan %v, throughput %v", m.Makespan, m.ThroughputHz)
	}
}

// TestEvalContextHammer reuses one context across 200 randomized
// points — shapes, quanta, workloads and heuristics all drawn from a
// seeded stream, vp-heavy with mvp/pipe/rtos points interleaved to
// churn the mapping kernel between refinements — and checks every
// result against a fresh-context evaluation. Run under -race in CI,
// this is the randomized mirror of TestEvalContextReuseIdentity.
func TestEvalContextHammer(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	r := xrand.New(77)
	plats := []PlatSpec{
		{Kind: "homog", Cores: 2, Fabric: "bus", DVFS: 0},
		{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1},
		{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		{Kind: "celllike", Cores: 5, Fabric: "mesh", DVFS: 2},
	}
	quanta := []int{1, 16, 64}
	heurs := []string{"list", "anneal"}
	wls := []string{"synth", "jpeg", "carradio"}
	ctx := NewEvalContext()
	for i := 0; i < n; i++ {
		p := Point{
			ID:        i,
			Seed:      seedFor(77, "hammer", i),
			Plat:      plats[r.Intn(len(plats))],
			Heuristic: heurs[r.Intn(len(heurs))],
			Fidelity:  "vp",
			Quantum:   quanta[r.Intn(len(quanta))],
		}
		p.Workload = wls[r.Intn(len(wls))]
		if p.Workload == "synth" {
			p.N = 6 + r.Intn(8)
		}
		p.WorkloadSeed = seedFor(77, "hammer/wl", r.Intn(4))
		switch r.Intn(8) {
		case 0: // interleave task-level points so c.k churns too
			p.Fidelity, p.Quantum = "mvp", 0
		case 1:
			p.Fidelity, p.Quantum, p.Iterations = "pipe", 0, 4
			p.Heuristic = heurs[0]
		case 2:
			p.Fidelity, p.Quantum = "rtos", 0
			p.Workload, p.N, p.Heuristic = "jobs", 12, "-"
		}
		reused := resultBytes(t, ctx.Evaluate(p))
		if fresh := resultBytes(t, NewEvalContext().Evaluate(p)); reused != fresh {
			t.Fatalf("point %d (%+v): reused context diverged:\nfresh  %s\nreused %s", i, p, fresh, reused)
		}
	}
}

// TestEvalObsNoDoubleCount: aggregated kernel-event counters are
// identical whether points run on one context (the kernel reset
// between points, rtos points included) or on a fresh context per
// point — absorbing must
// neither double-count nor drop kernel stats.
func TestEvalObsNoDoubleCount(t *testing.T) {
	points := vpRefinePoints(16)[:4] // cal fits are cached per context
	points = append(points,
		Point{ID: 100, Seed: 5, Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus"},
			Workload: "jobs", N: 12, WorkloadSeed: 3, Heuristic: "-", Fidelity: "rtos"},
		Point{ID: 101, Seed: 6, Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh"},
			Workload: "synth", N: 10, WorkloadSeed: 4, Heuristic: "list", Fidelity: "mvp"})
	sweep := func(perPoint bool) int64 {
		eo := NewEvalObs(obs.NewRegistry())
		ctx := NewEvalContext()
		ctx.SetObs(eo)
		for pass := 0; pass < 2; pass++ {
			for _, p := range points {
				if perPoint {
					ctx = NewEvalContext()
					ctx.SetObs(eo)
				}
				resultBytes(t, ctx.Evaluate(p))
			}
		}
		return eo.SimExecuted.Value()
	}
	reused := sweep(false)
	fresh := sweep(true)
	if reused != fresh {
		t.Fatalf("sim_events_executed_total: reused context %d, fresh contexts %d", reused, fresh)
	}
	if reused == 0 {
		t.Fatal("vacuous: no kernel events absorbed")
	}
}
