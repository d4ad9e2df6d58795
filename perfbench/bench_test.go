package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// shortWorkloads keeps each workload's shape — fidelities, memory
// models, multi-app points, job bags, the farm — on a handful of
// points.
var shortWorkloads = []workloadDef{
	{name: "sweep_default", spec: "plat=homog2;wl=jpeg,jobs8;heur=list,anneal;fid=mvp,vp64", seed: 1, inputs: 2},
	{name: "sweep_tasklevel", spec: "plat=homog4;mem=ideal,bank:4x2;wl=synth8,multi:jpeg+synth8;heur=list,anneal;fid=mvp,pipe4", seed: 7, inputs: 2},
	{name: "farm_loopback", spec: "plat=homog2,2xrisc+4xdsp;wl=jpeg,jobs8;fid=mvp,pipe4", seed: 3, inputs: 2, farm: true},
}

// TestMain runs the tests on the short workloads. A timed run starts
// each pass as a child process of the running binary — here the test
// binary — so an invocation with benchmark flags is served as one.
func TestMain(m *testing.M) {
	workloads = shortWorkloads
	if len(os.Args) > 1 && os.Args[1] == "--workload" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile reads the metric lists of the repository's
// BENCHMARK.json.
func benchmarkFile(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestShortRunsPrintEveryMetric runs every workload, timed and traced,
// on a few points and checks that each metric BENCHMARK.json names is
// printed with its unit, both in the metric lines and in the final
// JSON line.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkFile(t)
	dir := t.TempDir()
	for _, w := range shortWorkloads {
		for trace, want := range [][]benchMetric{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "5", "--seconds", "0", "--trace", fmt.Sprint(trace), "--workdir", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					printed := false
					for _, l := range lines[:len(lines)-1] {
						f := strings.Fields(l)
						printed = printed || len(f) == 3 && f[0] == m.Name && f[2] == m.Unit
					}
					if !printed {
						t.Errorf("metric %s is not printed with unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks that a bad workload name exits
// non-zero without printing a result.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestSpearman(t *testing.T) {
	for _, c := range []struct {
		xs, ys []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{[]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1},
		{[]float64{1, 1, 2, 2}, []float64{1, 1, 2, 2}, 1},
		{[]float64{1, 1, 1}, []float64{1, 2, 3}, 0},
	} {
		if got := spearman(c.xs, c.ys); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("spearman(%v, %v) = %v, want %v", c.xs, c.ys, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	parent := span{start: 0, dur: 10}
	kids := []span{{start: 2, dur: 3}, {start: 4, dur: 4}, {start: 9, dur: 5}, {start: -1, dur: 1}}
	// [2,5) ∪ [4,8) ∪ [9,10) clipped to the parent = 6 + 1.
	if got := covered(parent, kids); got != 7 {
		t.Fatalf("covered = %v, want 7", got)
	}
}
