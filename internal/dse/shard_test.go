package dse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func expandSweep(t *testing.T, spec string, seed uint64) []Point {
	t.Helper()
	sw, err := ParseSweep(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestPlanShardsProperties: shards are contiguous, cover every point
// exactly once, stay within the greedy balance bound, and the plan is
// a pure function of (points, n).
func TestPlanShardsProperties(t *testing.T) {
	points := expandSweep(t, "default", 1)
	total, maxCost := 0.0, 0.0
	for _, p := range points {
		c := EstCost(p)
		total += c
		if c > maxCost {
			maxCost = c
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8, 31} {
		shards, err := PlanShards(points, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
		lo := 0
		for k, s := range shards {
			if s.Index != k || s.Count != n {
				t.Fatalf("n=%d shard %d mislabelled: %+v", n, k, s)
			}
			if s.Lo != lo || s.Hi < s.Lo {
				t.Fatalf("n=%d shard %d not contiguous: %+v (want Lo=%d)", n, k, s, lo)
			}
			cost := 0.0
			for _, p := range points[s.Lo:s.Hi] {
				cost += EstCost(p)
			}
			if bound := total/float64(n) + maxCost + 1e-9; cost > bound {
				t.Fatalf("n=%d shard %d cost %.1f exceeds balance bound %.1f", n, k, cost, bound)
			}
			lo = s.Hi
		}
		if lo != len(points) {
			t.Fatalf("n=%d shards cover %d of %d points", n, lo, len(points))
		}
		again, _ := PlanShards(points, n)
		if !reflect.DeepEqual(shards, again) {
			t.Fatalf("n=%d plan is not deterministic", n)
		}
	}
	// Splitting exactly one point per shard is the finest legal plan.
	few := points[:3]
	shards, err := PlanShards(few, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range shards {
		if s.Len() != 1 {
			t.Fatalf("shard %d of 3 over 3 points has %d points (want 1)", k, s.Len())
		}
	}
}

// TestPlanShardsCostlyTail: cheap points ahead of a costly one must
// not all fill the first shard and leave the last one empty — the
// greedy fill stops short of one point per later shard.
func TestPlanShardsCostlyTail(t *testing.T) {
	cheap := Point{Plat: PlatSpec{Kind: "homog", Cores: 2, Fabric: "mesh"}, Heuristic: "list", Fidelity: "mvp"}
	costly := cheap
	costly.Heuristic = "anneal"
	points := []Point{cheap, cheap, cheap, costly}
	for n := 1; n <= len(points); n++ {
		shards, err := PlanShards(points, n)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range shards {
			if s.Len() == 0 {
				t.Fatalf("n=%d: shard %d is empty: %v", n, k, shards)
			}
		}
	}
}

// TestPlanShardsErrors: asking for more shards than points, or a
// non-positive count, is an actionable error naming the valid range —
// not a plan with silently empty shards. Property-checked over a
// range of invalid counts.
func TestPlanShardsErrors(t *testing.T) {
	points := expandSweep(t, "smoke", 1)
	for _, n := range []int{0, -1, -100} {
		if _, err := PlanShards(points, n); err == nil || !strings.Contains(err.Error(), ">= 1") {
			t.Errorf("PlanShards(n=%d) = %v, want >=1 error", n, err)
		}
	}
	wantRange := fmt.Sprintf("1..%d", len(points))
	for _, n := range []int{len(points) + 1, len(points) + 7, 10 * len(points)} {
		_, err := PlanShards(points, n)
		if err == nil || !strings.Contains(err.Error(), wantRange) {
			t.Errorf("PlanShards(n=%d) over %d points = %v, want error naming range %s", n, len(points), err, wantRange)
		}
	}
	if _, err := PlanShards(nil, 1); err == nil {
		t.Error("PlanShards over zero points accepted")
	}
}

func TestParseShardArg(t *testing.T) {
	k, n, err := ParseShardArg("2/5")
	if err != nil || k != 2 || n != 5 {
		t.Fatalf("ParseShardArg(2/5) = %d, %d, %v", k, n, err)
	}
	// Each failure mode gets its own actionable message: the error
	// must say what is wrong, not just "bad shard".
	for _, tc := range []struct{ in, want string }{
		{"", "want K/N"},
		{"3", "want K/N"},
		{"a/b", "integers"},
		{"1/x", "integers"},
		{"1/0", "must be >= 1"},
		{"1/-2", "must be >= 1"},
		{"0/0", "must be >= 1"},
		{"5/5", "0..4"},
		{"-1/3", "0..2"},
	} {
		_, _, err := ParseShardArg(tc.in)
		if err == nil {
			t.Errorf("ParseShardArg(%q) accepted", tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseShardArg(%q) = %v, want message containing %q", tc.in, err, tc.want)
		}
	}
}

func TestShardPath(t *testing.T) {
	for _, tc := range []struct {
		out  string
		k    int
		want string
	}{
		{"dse.jsonl", 2, "dse.shard-2.jsonl"},
		{"out", 0, "out.shard-0"},
		{"/tmp/v1.2/out", 1, "/tmp/v1.2/out.shard-1"},
		{"/tmp/run/a.jsonl", 3, "/tmp/run/a.shard-3.jsonl"},
	} {
		if got := ShardPath(tc.out, tc.k); got != tc.want {
			t.Errorf("ShardPath(%q, %d) = %q, want %q", tc.out, tc.k, got, tc.want)
		}
	}
}

// runShardFile emulates one cmd/dse shard invocation in-process:
// header line plus the shard's results streamed in point order.
func runShardFile(t *testing.T, path, spec string, seed uint64, shard *Shard, workers int) {
	t.Helper()
	points := expandSweep(t, spec, seed)
	slice := points
	if shard != nil {
		slice = points[shard.Lo:shard.Hi]
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, NewHeader(spec, seed, points, shard)); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: workers, OnResult: func(r Result) {
		if err := WriteResult(&buf, r); err != nil {
			t.Error(err)
		}
	}}
	for _, r := range eng.Run(slice) {
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardMergeByteIdentity is the distribution contract: splitting
// the default sweep into k shards (each evaluated with a different
// worker count, as different hosts would), then merging, must
// reproduce the unsharded JSONL byte for byte — and therefore the
// same Pareto fronts and hypervolumes — for shard counts 2 and 5.
func TestShardMergeByteIdentity(t *testing.T) {
	spec := "default"
	if testing.Short() {
		spec = "smoke"
	}
	const seed = 1
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runShardFile(t, full, spec, seed, nil, 4)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	points := expandSweep(t, spec, seed)
	fullAcc, _ := mustMerge(t, []string{full})
	wantHV := HVTable(Hypervolumes(fullAcc.Results()), false)
	for _, n := range []int{2, 5} {
		shards, err := PlanShards(points, n)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for k := range shards {
			path := ShardPath(filepath.Join(dir, "s.jsonl"), k)
			runShardFile(t, path, spec, seed, &shards[k], k+1)
			paths = append(paths, path)
		}
		acc, h := mustMerge(t, paths)
		var buf bytes.Buffer
		if _, err := acc.WriteTo(&buf, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d-shard merge diverged from unsharded run (%d vs %d bytes)", n, buf.Len(), len(want))
		}
		if gotHV := HVTable(Hypervolumes(acc.Results()), false); gotHV != wantHV {
			t.Fatalf("%d-shard hypervolumes diverged:\n%s\nvs\n%s", n, gotHV, wantHV)
		}
	}
}

func mustMerge(t *testing.T, paths []string) (*Accumulator, Header) {
	t.Helper()
	acc, h, err := MergeShards(paths)
	if err != nil {
		t.Fatal(err)
	}
	return acc, h
}
