package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mpsockit/internal/obs"
)

// sweepResultBytes runs the spec through an Engine and returns the
// result stream as JSONL bytes.
func sweepResultBytes(t *testing.T, spec string, workers int, o EvalObs, tr *obs.Tracer) []byte {
	t.Helper()
	sw, err := ParseSweep(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	eng := Engine{Workers: workers, Obs: o, Tracer: tr, OnResult: func(r Result) {
		if err := enc.Encode(r); err != nil {
			t.Error(err)
		}
	}}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	eng.RunContext(context.Background(), pts)
	return buf.Bytes()
}

// TestInstrumentedSweepByteIdentical is the telemetry-is-a-side-channel
// regression: a sweep with live metrics and tracing attached must emit
// byte-identical result JSONL to an unobserved run, and the metrics
// must actually have moved.
func TestInstrumentedSweepByteIdentical(t *testing.T) {
	const spec = "smoke"
	plain := sweepResultBytes(t, spec, 3, EvalObs{}, nil)

	r := obs.NewRegistry()
	o := NewEvalObs(r)
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	observed := sweepResultBytes(t, spec, 3, o, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain, observed) {
		t.Fatalf("instrumentation changed result bytes:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	sw, _ := ParseSweep(spec, 42)
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(pts))
	if got := o.Points.Value(); got != n {
		t.Fatalf("dse_points_total = %d, want %d", got, n)
	}
	if o.SimExecuted.Value() == 0 || o.SimScheduled.Value() == 0 {
		t.Fatal("kernel event counters did not move")
	}
	if o.Search.Schedules.Value() == 0 {
		t.Fatal("mapping schedule counter did not move")
	}
	if tr.Spans() < n {
		t.Fatalf("tracer recorded %d spans for %d points", tr.Spans(), n)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
		t.Fatalf("trace unparseable: %v", err)
	}
	if int64(len(events)) != tr.Spans() {
		t.Fatalf("decoded %d events, Spans() says %d", len(events), tr.Spans())
	}
}

// TestEvalObsCachesAndLatency: a reused context hits its caches on the
// second sight of a point, and every evaluation lands in the
// fidelity's latency histogram.
func TestEvalObsCachesAndLatency(t *testing.T) {
	r := obs.NewRegistry()
	o := NewEvalObs(r)
	c := NewEvalContext()
	c.SetObs(o)
	p := Point{
		Seed: 1, Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus"},
		Workload: "synth", N: 8, WorkloadSeed: 5, Heuristic: "list", Fidelity: "mvp",
	}
	for i := 0; i < 3; i++ {
		if res := c.Evaluate(p); res.Err != "" {
			t.Fatal(res.Err)
		}
	}
	if o.GraphMisses.Value() != 1 || o.GraphHits.Value() != 2 {
		t.Fatalf("graph cache hits/misses = %d/%d, want 2/1",
			o.GraphHits.Value(), o.GraphMisses.Value())
	}
	if o.LatMVP.Count() != 3 {
		t.Fatalf("mvp latency count = %d, want 3", o.LatMVP.Count())
	}
	if o.Points.Value() != 3 || o.Errors.Value() != 0 {
		t.Fatalf("points/errors = %d/%d", o.Points.Value(), o.Errors.Value())
	}

	// A failing point lands in Errors but still counts as a point.
	if res := c.Evaluate(Point{Plat: p.Plat, Workload: "synth", N: 8, WorkloadSeed: 5,
		Heuristic: "list", Fidelity: "bogus"}); res.Err == "" {
		t.Fatal("bogus fidelity did not error")
	}
	if o.Errors.Value() != 1 || o.Points.Value() != 4 {
		t.Fatalf("after failure points/errors = %d/%d, want 4/1", o.Points.Value(), o.Errors.Value())
	}
}

// TestInstrumentationAllocFree proves the instrumented steady-state
// evaluation path allocates exactly as much as the unobserved one —
// the SweepPoint analogue of the 0-allocs/op bench guard, measured as
// an equality so it stays meaningful even though a full evaluation
// itself allocates (platform build, result slices).
func TestInstrumentationAllocFree(t *testing.T) {
	p := Point{
		Seed: 12345, Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		Workload: "synth", N: 16, WorkloadSeed: 99, Heuristic: "anneal", Fidelity: "mvp",
	}
	plain := NewEvalContext()
	observed := NewEvalContext()
	observed.SetObs(NewEvalObs(obs.NewRegistry()))
	run := func(c *EvalContext) float64 {
		i := 0
		return testing.AllocsPerRun(20, func() {
			i++
			if r := c.Evaluate(alternateSeed(p, i)); r.Err != "" {
				t.Fatal(r.Err)
			}
		})
	}
	a, b := run(plain), run(observed)
	if a != b {
		t.Fatalf("instrumentation changed allocations: plain %.0f, observed %.0f allocs/op", a, b)
	}
}

// TestLatencyCoversEveryFidelity: every evaluated point lands in
// exactly one latency histogram — rtos job-bag points included, under
// fid="rtos" — so the histogram counts sum to dse_points_total.
func TestLatencyCoversEveryFidelity(t *testing.T) {
	const spec = "plat=homog4;wl=synth8,jobs12;heur=list;fid=mvp,pipe4,vp16,cal:1"
	reg := obs.NewRegistry()
	o := NewEvalObs(reg)
	sweepResultBytes(t, spec, 2, o, nil)
	hists := map[string]*obs.Histogram{"mvp": o.LatMVP, "pipe": o.LatPipe, "vp": o.LatVP, "cal": o.LatCal, "rtos": o.LatJobs}
	var sum int64
	for fid, h := range hists {
		if h.Count() == 0 {
			t.Errorf("fid=%s: no latency observations", fid)
		}
		sum += h.Count()
	}
	if points := o.Points.Value(); sum != points {
		t.Fatalf("latency histograms hold %d observations, dse_points_total is %d", sum, points)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text.Bytes(), []byte(`dse_eval_latency_us_count{fid="rtos"}`)) {
		t.Fatal(`exposition has no dse_eval_latency_us{fid="rtos"} series`)
	}
}
