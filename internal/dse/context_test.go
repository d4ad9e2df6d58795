package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"mpsockit/internal/obs"
)

// contextPoints covers every evaluation path through an EvalContext:
// task-level one-shot, pipelined, instruction-level vp refinement,
// and the RTOS jobs path.
func contextPoints() []Point {
	mk := func(id int, plat PlatSpec, wl string, n int, heur, fid string, iters, quantum int) Point {
		return Point{
			ID: id, Seed: seedFor(11, "point", id),
			Plat: plat, Workload: wl, N: n,
			WorkloadSeed: seedFor(11, "wl/"+wl, n),
			Heuristic:    heur, Fidelity: fid,
			Iterations: iters, Quantum: quantum,
		}
	}
	wireless := PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1}
	homog := PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus", DVFS: 0}
	cell := PlatSpec{Kind: "celllike", Cores: 4, Fabric: "mesh", DVFS: 2}
	return []Point{
		mk(0, wireless, "jpeg", 0, "list", "mvp", 0, 0),
		mk(1, wireless, "jpeg", 0, "anneal", "mvp", 0, 0),
		mk(2, homog, "synth", 12, "anneal", "vp", 0, 64),
		mk(3, cell, "carradio", 0, "exhaustive", "pipe", 6, 0),
		mk(4, homog, "jobs", 16, "-", "rtos", 0, 0),
		mk(5, wireless, "h264", 0, "anneal", "vp", 0, 16),
		mk(6, homog, "synth", 12, "list", "mvp", 0, 0), // same graph key as 2
	}
}

// TestEvalContextReuseIdentity: evaluating a stream of points on one
// reused context — reset kernels, cached graph prototypes, rebound
// mapping scratch — yields byte-identical results to a fresh context
// per point, in any order. This is the no-state-leak contract kernel
// and scratch reuse must uphold (run under -race in CI).
func TestEvalContextReuseIdentity(t *testing.T) {
	points := contextPoints()
	want := make([]string, len(points))
	for i, p := range points {
		r := NewEvalContext().Evaluate(p)
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", p.ID, r.Err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{4, 0, 4, 2, 6, 2, 1, 3, 5, 0}, // repeats: same point twice on one context
	}
	for oi, order := range orders {
		ctx := NewEvalContext()
		for _, idx := range order {
			r := ctx.Evaluate(points[idx])
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != want[idx] {
				t.Fatalf("order %d: reused context diverged on point %d:\nfresh  %s\nreused %s",
					oi, points[idx].ID, want[idx], b)
			}
		}
	}
}

// TestEvalContextGraphCache: points sharing (workload, N, seed) map
// the same prototype graph, points differing in any key do not.
func TestEvalContextGraphCache(t *testing.T) {
	ctx := NewEvalContext()
	p1 := Point{Plat: PlatSpec{Kind: "homog", Cores: 2, Fabric: "mesh"}, Workload: "synth", N: 8, WorkloadSeed: 5}
	p2 := p1
	p3 := p1
	p3.WorkloadSeed = 6
	g1, err := ctx.graph(p1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ctx.graph(p2)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := ctx.graph(p3)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical workload keys built two prototypes")
	}
	if g1 == g3 {
		t.Fatal("different workload seeds shared a prototype")
	}
}

// rtosPoints is a stream of rtos job-bag points over varied platforms,
// bag sizes and seeds.
func rtosPoints(n int) []Point {
	plats := []PlatSpec{
		{Kind: "homog", Cores: 2, Fabric: "bus", DVFS: 0},
		{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1},
		{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		{Kind: "celllike", Cores: 6, Fabric: "mesh", DVFS: 2},
		{Kind: "mpcore", Cores: 4, Fabric: "bus", DVFS: 1},
	}
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{
			ID: i, Seed: seedFor(31, "point", i),
			Plat: plats[i%len(plats)], Workload: "jobs", N: 8 + 4*(i%7),
			WorkloadSeed: seedFor(31, "wl/jobs", i),
			Heuristic:    "-", Fidelity: "rtos",
		}
	}
	return points
}

// TestEveryFidelityReusesOneKernel: one EvalContext evaluating points
// of every fidelity (mvp, pipe, vp, cal, rtos) keeps one kernel for its
// whole life. No point leaves a live process or a parked goroutine, so
// every point resets the same *sim.Kernel. The rtos points' result
// bytes are the ones the sweep produced while the scheduler still ran
// its time-shared cores as goroutines.
func TestEveryFidelityReusesOneKernel(t *testing.T) {
	points := append(contextPoints(), vpRefinePoints(16)...)
	c := NewEvalContext()
	c.Evaluate(points[0]) // settle any one-time runtime goroutines
	k := c.k
	before := runtime.NumGoroutine()
	fids := map[string]bool{}
	h := sha256.New()
	for i, p := range rtosPoints(50) {
		h.Write([]byte(resultBytes(t, c.Evaluate(p))))
		q := points[i%len(points)]
		resultBytes(t, c.Evaluate(q))
		fids[p.Fidelity], fids[q.Fidelity] = true, true
		if c.k != k {
			t.Fatalf("point %d (fid=%s) replaced the context's kernel", q.ID, q.Fidelity)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("kernel left with %d live processes after fid=%s and fid=%s points", n, p.Fidelity, q.Fidelity)
		}
	}
	if len(fids) != 5 {
		t.Fatalf("covered fidelities %v, want mvp, pipe, vp, cal and rtos", fids)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
	const want = "a42a98d75a64e518ec8833a9e58bf3f21bd2d795d89ec054fb3dfc9c7c6cf1f5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("rtos result bytes changed: sha256 %s, want %s", got, want)
	}
}

// sweepBytes is a run's results as the JSONL records WriteResult
// streams.
func sweepBytes(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if err := WriteResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestEngineCachesStayBounded: one Workers: 1 Engine, as a farm worker
// keeps it for life, runs 400 one-sweep specs (seeds 1–400), each with
// three workload graphs, one multi-app scenario and three cal groups
// of its own. Its context's caches must stay within cacheCap while
// well over cacheCap entries pass through them, every sweep's bytes
// must equal a fresh engine's, and a sweep over many platforms
// afterwards must build each of its graphs once (platform-major
// expansion does not thrash the bounded cache).
func TestEngineCachesStayBounded(t *testing.T) {
	const spec = "plat=homog4;wl=jpeg,synth12,multi:jpeg+synth8;heur=list;fid=mvp,cal:1"
	o := NewEvalObs(obs.NewRegistry())
	eng := &Engine{Workers: 1, Obs: o}
	for seed := uint64(1); seed <= 400; seed++ {
		points := expandSweep(t, spec, seed)
		got := sweepBytes(t, eng.Run(points))
		want := sweepBytes(t, (&Engine{Workers: 1}).Run(points))
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: reused engine wrote\n%s\nfresh engine\n%s", seed, got, want)
		}
		c := eng.ctxs[0]
		if len(c.graphs) > cacheCap || len(c.multis) > cacheCap || len(c.cals) > cacheCap {
			t.Fatalf("seed %d: cache sizes graphs %d, multis %d, cals %d, cap %d",
				seed, len(c.graphs), len(c.multis), len(c.cals), cacheCap)
		}
	}
	for name, misses := range map[string]int64{"graph": o.GraphMisses.Value(), "multi": o.MultiMisses.Value(), "cal": o.CalMisses.Value()} {
		if misses <= cacheCap {
			t.Fatalf("vacuous: only %d %s cache misses, cap %d", misses, name, cacheCap)
		}
	}
	before := o.GraphMisses.Value()
	eng.Run(expandSweep(t, "plat=homog2,homog4,homog8,mpcore4,wireless;fab=mesh,bus;wl=jpeg,h264,synth8,synth16;heur=list;fid=mvp", 401))
	if built := o.GraphMisses.Value() - before; built != 4 {
		t.Fatalf("a 4-workload sweep over 10 platform blocks built %d graphs, want 4", built)
	}
}

// Evaluate scores one design point on a fresh context: the oracle the
// reuse, memo and engine tests compare a long-lived EvalContext with.
func Evaluate(p Point) Result {
	return NewEvalContext().Evaluate(p)
}
