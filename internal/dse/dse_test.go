package dse

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"mpsockit/internal/obs"
)

// TestEvaluateRepresentativePoints drives every workload kind and
// fidelity through a real evaluation and sanity-checks the metrics.
func TestEvaluateRepresentativePoints(t *testing.T) {
	points := []Point{
		{Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1}, Workload: "jpeg", Heuristic: "list", Fidelity: "mvp"},
		{Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1}, Workload: "h264", Heuristic: "anneal", Fidelity: "pipe", Iterations: 4, Seed: 7},
		{Plat: PlatSpec{Kind: "wireless", Fabric: "bus", DVFS: 2}, Workload: "carradio", Heuristic: "list", Fidelity: "vp", Quantum: 16},
		{Plat: PlatSpec{Kind: "celllike", Cores: 2, Fabric: "mesh", DVFS: 1}, Workload: "synth", N: 10, WorkloadSeed: 99, Heuristic: "list", Fidelity: "mvp"},
		{Plat: PlatSpec{Kind: "mpcore", Cores: 4, Fabric: "bus", DVFS: 1}, Workload: "jobs", N: 12, WorkloadSeed: 5, Heuristic: "-", Fidelity: "rtos"},
		{Plat: PlatSpec{Kind: "homog", Cores: 2, Fabric: "mesh", DVFS: 1}, Workload: "carradio", Heuristic: "exhaustive", Fidelity: "mvp"},
	}
	for i := range points {
		points[i].ID = i
	}
	for _, r := range (&Engine{Workers: 2}).Run(points) {
		if r.Err != "" {
			t.Fatalf("point %d (%s %s %s): %s", r.Point.ID, r.Point.Plat, r.Point.Workload, r.Point.Fidelity, r.Err)
		}
		m := r.Metrics
		if m.Makespan <= 0 || m.ThroughputHz <= 0 {
			t.Fatalf("point %d: empty timing %+v", r.Point.ID, m)
		}
		if m.Energy <= 0 || m.Area <= 0 {
			t.Fatalf("point %d: empty proxies %+v", r.Point.ID, m)
		}
		if m.UtilMean <= 0 || m.UtilMean > 1.0001 || m.UtilMax > 1.0001 {
			t.Fatalf("point %d: implausible utilization %+v", r.Point.ID, m)
		}
		if m.SimEvents == 0 {
			t.Fatalf("point %d: no kernel events", r.Point.ID)
		}
		if r.Point.Fidelity == "vp" && m.VPInstr == 0 {
			t.Fatalf("point %d: vp fidelity retired no instructions", r.Point.ID)
		}
	}
}

func sweepJSONL(t *testing.T, spec string, seed uint64, workers int) []byte {
	t.Helper()
	sw, err := ParseSweep(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	eng := &Engine{Workers: workers, OnResult: func(r Result) {
		if err := WriteResult(&buf, r); err != nil {
			t.Error(err)
		}
	}}
	results := eng.Run(points)
	for i, r := range results {
		if r.Point.ID != i {
			t.Fatalf("result %d carries point ID %d (order broken)", i, r.Point.ID)
		}
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", i, r.Err)
		}
	}
	return buf.Bytes()
}

// TestSweepDeterminism: same seed + same sweep must produce identical
// JSONL bytes, independent of worker count (the ordered streaming
// collector hides completion order).
func TestSweepDeterminism(t *testing.T) {
	a := sweepJSONL(t, "smoke", 42, 1)
	b := sweepJSONL(t, "smoke", 42, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different JSONL across worker counts")
	}
	c := sweepJSONL(t, "smoke", 43, 4)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// TestWorkerPoolParallel exercises the pool with more workers than
// cores under the race detector (CI runs this package with -race).
func TestWorkerPoolParallel(t *testing.T) {
	sw, err := ParseSweep("plat=homog2,homog4,homog8;wl=carradio,synth8;heur=list,anneal", 3)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	eng := &Engine{Workers: 16, OnResult: func(r Result) {
		if r.Point.ID != seen {
			t.Errorf("streamed point %d out of order (want %d)", r.Point.ID, seen)
		}
		seen++
	}}
	results := eng.Run(points)
	if seen != len(points) || len(results) != len(points) {
		t.Fatalf("streamed %d of %d results", seen, len(points))
	}
}

// TestResumeCheckpoint: a sweep resumed from a JSONL prefix must
// complete to the same bytes as an uninterrupted run, and a
// checkpoint from a different sweep must be rejected loudly.
func TestResumeCheckpoint(t *testing.T) {
	full := sweepJSONL(t, "smoke", 11, 4)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty slice
	half := len(lines) / 2
	sw, _ := ParseSweep("smoke", 11)
	points, _ := sw.Points()
	header := NewHeader("smoke", 11, points, nil)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	// A torn trailing line (crash mid-write) must not poison the
	// checkpoint: the valid prefix is still recovered.
	var torn bytes.Buffer
	if err := WriteHeader(&torn, header); err != nil {
		t.Fatal(err)
	}
	torn.Write(bytes.Join(lines[:half], nil))
	torn.WriteString(`{"point":{"id`)
	if err := os.WriteFile(path, torn.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	prefix, err := loadCheckpoint(path, header, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != half {
		t.Fatalf("checkpoint recovered %d of %d results", len(prefix), half)
	}
	var buf bytes.Buffer
	for _, r := range prefix {
		if err := WriteResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	eng := &Engine{Workers: 4, OnResult: func(r Result) {
		if err := WriteResult(&buf, r); err != nil {
			t.Error(err)
		}
	}}
	eng.Run(points[len(prefix):])
	if !bytes.Equal(buf.Bytes(), full) {
		t.Fatal("resumed sweep diverged from uninterrupted run")
	}
	// A checkpoint from a different seed must be rejected with an
	// error (the spec hash in its header differs), not silently
	// re-evaluated from scratch.
	other, _ := ParseSweep("smoke", 12)
	otherPoints, _ := other.Points()
	otherHeader := NewHeader("smoke", 12, otherPoints, nil)
	if _, err := loadCheckpoint(path, otherHeader, otherPoints); err == nil {
		t.Fatal("foreign checkpoint accepted without error")
	}
	// A pre-schema file (no header line) is also an explicit error.
	legacy := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(legacy, bytes.Join(lines[:half], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(legacy, header, points); err == nil {
		t.Fatal("headerless checkpoint accepted without error")
	}
}

// TestDefaultSweepShape guards the acceptance envelope: the default
// sweep spans ≥200 points and ≥3 workloads.
func TestDefaultSweepShape(t *testing.T) {
	sw, err := ParseSweep("default", 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 200 {
		t.Fatalf("default sweep has only %d points", len(points))
	}
	wls := map[string]bool{}
	for _, p := range points {
		wls[p.Workload] = true
	}
	if len(wls) < 3 {
		t.Fatalf("default sweep spans only %d workloads", len(wls))
	}
	// Same-workload points must share one workload instance so
	// heuristics and platforms compete on identical inputs.
	seeds := map[string]uint64{}
	for _, p := range points {
		key := p.Workload + "/" + strconv.Itoa(p.N)
		if s, ok := seeds[key]; ok && s != p.WorkloadSeed {
			t.Fatalf("workload %s has diverging seeds", key)
		}
		seeds[key] = p.WorkloadSeed
	}
}

func TestParseSweepErrors(t *testing.T) {
	for _, bad := range []string{
		"plat=quantum4", "wl=doom", "heur=greedy", "fid=fpga",
		"fab=tube", "dvfs=fast", "nonsense",
	} {
		if _, err := ParseSweep(bad, 1); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}

// TestEngineReuseMatchesFresh: an Engine keeps its workers' contexts
// across runs, so a later run starts on warm kernels, platforms, graph
// prototypes and mapping memos. Runs on one Engine equal the same runs
// on fresh Engines, result for result: across a change of sweep, and
// across a cut through a run of fidelity twins, whose tail meets the
// mapping its head left in the evaluator.
func TestEngineReuseMatchesFresh(t *testing.T) {
	a := expandSweep(t, "smoke", 1)
	b := expandSweep(t, twinMixedSpec, 3)
	cut := 1
	for cut < len(b) && !twins(b[cut-1], b[cut]) {
		cut++
	}
	if cut == len(b) {
		t.Fatal("vacuous: no fidelity twins to cut between")
	}
	for _, workers := range []int{1, 3} {
		o := NewEvalObs(obs.NewRegistry())
		e := &Engine{Workers: workers, Obs: o}
		for i, run := range [][]Point{a, b[:cut], b[cut:], a} {
			misses := o.GraphMisses.Value()
			got := e.Run(run)
			want := (&Engine{Workers: workers}).Run(run)
			for j := range want {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("%d workers, run %d, point %d: reused %+v, fresh %+v", workers, i, run[j].ID, got[j], want[j])
				}
			}
			if i == 3 && workers == 1 && o.GraphMisses.Value() != misses {
				t.Fatal("repeating a sweep on one worker rebuilt its graphs: the context was not kept")
			}
		}
	}
}

// TestEngineReusesResultArray: RunContext's result slice is the
// Engine's scratch. A second, shorter run on one Engine reuses the
// first run's array and writes the same bytes as a fresh Engine, a
// longer third run grows it and writes the fresh bytes too, and a copy
// of the first run taken before the second keeps its values.
func TestEngineReusesResultArray(t *testing.T) {
	long := expandSweep(t, "plat=homog2,homog4;wl=carradio,jpeg,synth8;heur=list,anneal", 3)
	short := expandSweep(t, "plat=wireless;wl=jpeg,synth12;heur=list", 4)
	longer := expandSweep(t, "smoke", 1)
	if len(short) >= len(long) || len(longer) <= len(long) {
		t.Fatalf("vacuous: runs of %d, %d and %d points", len(long), len(short), len(longer))
	}
	e := &Engine{Workers: 2}
	first := e.RunContext(context.Background(), long)
	kept := append([]Result(nil), first...)
	for i, run := range [][]Point{short, longer} {
		got := e.RunContext(context.Background(), run)
		if i == 0 && &got[0] != &first[0] {
			t.Fatal("the second run did not reuse the first run's result array")
		}
		if want := sweepBytes(t, (&Engine{Workers: 2}).Run(run)); !bytes.Equal(sweepBytes(t, got), want) {
			t.Fatalf("run %d on a reused Engine wrote different bytes than a fresh Engine", i+2)
		}
	}
	if !bytes.Equal(sweepBytes(t, kept), sweepBytes(t, (&Engine{Workers: 2}).Run(long))) {
		t.Fatal("the copy of the first run changed")
	}
}
