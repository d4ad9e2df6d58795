package dse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// splitShards cuts points into n contiguous ranges of near-equal
// length: a fixed split standing in for any complete set of range
// files, such as a coordinator log plus workers' lease checkpoints.
func splitShards(points []Point, n int) []Shard {
	shards := make([]Shard, n)
	for k := range shards {
		shards[k] = Shard{Lo: k * len(points) / n, Hi: (k + 1) * len(points) / n}
	}
	return shards
}

// shardFile names range k's result file under dir.
func shardFile(dir, base string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard-%d.jsonl", base, k))
}

// runShardFile writes one range's result file in-process: header line
// plus the range's results streamed in point order, as a lease
// checkpoint carries them (a nil shard writes the whole sweep).
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
		shards := splitShards(points, n)
		var paths []string
		for k := range shards {
			path := shardFile(dir, "s", k)
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
