package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// mixedSpec crosses every new axis at once: custom core mixes beside
// a named preset, multi-app scenarios beside their single-app
// constituents, and all three fidelity kinds.
const mixedSpec = "plat=2xrisc+1xdsp,homog4,2xrisc@400+2xdsp+1xvliw+1xacc;" +
	"wl=multi:jpeg+carradio,multi:carradio+synth8+h264,jpeg;heur=list,anneal;fid=mvp,vp16"

// TestMixedAxesSweepDeterminism: the new plat=/wl=multi: tokens
// expand and evaluate to identical bytes on any worker count, and a
// different seed moves the results.
func TestMixedAxesSweepDeterminism(t *testing.T) {
	a := sweepJSONL(t, mixedSpec, 21, 1)
	b := sweepJSONL(t, mixedSpec, 21, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("mixed-axes sweep differs across worker counts")
	}
	c := sweepJSONL(t, mixedSpec, 22, 4)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical mixed-axes sweeps")
	}
}

// TestMixedAxesShardMergeByteIdentity: sharding a sweep over the new
// axes and merging reproduces the unsharded bytes — headers,
// spec_hash and the merge validation all understand the new tokens.
func TestMixedAxesShardMergeByteIdentity(t *testing.T) {
	const seed = 17
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runShardFile(t, full, mixedSpec, seed, nil, 3)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	points := expandSweep(t, mixedSpec, seed)
	shards := splitShards(points, 3)
	var paths []string
	for k := range shards {
		path := shardFile(dir, "s", k)
		runShardFile(t, path, mixedSpec, seed, &shards[k], k+1)
		paths = append(paths, path)
	}
	acc, h := mustMerge(t, paths)
	var buf bytes.Buffer
	if _, err := acc.WriteTo(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("mixed-axes merge diverged from unsharded run (%d vs %d bytes)", buf.Len(), len(want))
	}
}

// TestMixedAxesResume: a mixed-axes checkpoint prefix resumes to the
// bytes of an uninterrupted run (Point.Apps and PlatSpec.Mix survive
// the JSONL round trip that MatchPrefix compares against).
func TestMixedAxesResume(t *testing.T) {
	const seed = 23
	full := sweepJSONL(t, mixedSpec, seed, 4)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1]
	half := len(lines) / 2
	points := expandSweep(t, mixedSpec, seed)
	header := NewHeader(mixedSpec, seed, points, nil)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	var ckpt bytes.Buffer
	if err := WriteHeader(&ckpt, header); err != nil {
		t.Fatal(err)
	}
	ckpt.Write(bytes.Join(lines[:half], nil))
	if err := os.WriteFile(path, ckpt.Bytes(), 0o644); err != nil {
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
		t.Fatal("resumed mixed-axes sweep diverged from uninterrupted run")
	}
}

// TestSweepSpecCanonical: Spec renders any parsed sweep to a form
// that re-parses to the same dimension values, presets included.
func TestSweepSpecCanonical(t *testing.T) {
	for _, spec := range []string{
		"smoke", "default", "", mixedSpec, memSpec,
		"plat=8xrisc@600;wl=multi:synth2+synth2;fab=bus;dvfs=0,2;heur=exhaustive;fid=pipe4",
		"plat=homog4;wl=jpeg;mem=ideal,bank:4x2,bw:8",
		"plat=homog2;wl=jpeg;fid=pipe1,pipe1024",
	} {
		sw, err := ParseSweep(spec, 5)
		if err != nil {
			t.Fatalf("ParseSweep(%q): %v", spec, err)
		}
		canon := sw.Spec()
		sw2, err := ParseSweep(canon, 5)
		if err != nil {
			t.Fatalf("canonical %q of %q does not parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(sw, sw2) {
			t.Fatalf("spec %q: canonical %q re-parses differently:\n%+v\nvs\n%+v", spec, canon, sw, sw2)
		}
		p1, err := sw.Points()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := sw2.Points()
		if err != nil {
			t.Fatal(err)
		}
		if HashPoints(p1) != HashPoints(p2) {
			t.Fatalf("spec %q: canonical form expands to different points", spec)
		}
	}
}

// TestParseSweepNewTokenErrors: malformed mix and multi tokens are
// rejected with errors, not panics or silent acceptance.
func TestParseSweepNewTokenErrors(t *testing.T) {
	for _, bad := range []string{
		"plat=2xquantum", "plat=0xrisc", "plat=65xrisc", "plat=2xrisc@0",
		"plat=33xrisc+32xdsp", "plat=2xrisc++1xdsp",
		"wl=multi:", "wl=multi:jobs32", "wl=multi:jpeg+jobs8",
		"wl=multi:multi:jpeg", "wl=multi:doom",
		"wl=multi:jpeg+jpeg+jpeg+jpeg+jpeg+jpeg+jpeg+jpeg+jpeg",
		"mem=dram", "mem=bank:0x2", "mem=bank:65x1", "mem=bank:4x9",
		"mem=bank:4", "mem=bw:0", "mem=bw:1025", "mem=bw:",
		"fid=pipe0", "fid=pipe1025", "fid=pipe1000000000", "fid=pipe-1",
	} {
		if _, err := ParseSweep(bad, 1); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}

// TestMultiPointExpansion: multi workloads keep the full heuristic ×
// fidelity cross (they are mapped offline, unlike jobs) and derive
// each constituent's instance seed exactly as the single-workload
// token would.
func TestMultiPointExpansion(t *testing.T) {
	sw, err := ParseSweep("plat=homog4;wl=multi:jpeg+synth8,jpeg,synth8;heur=list,anneal;fid=mvp,vp16", 7)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*2*2 {
		t.Fatalf("expanded %d points, want 12", len(points))
	}
	var multi, jpeg, synth *Point
	for i := range points {
		p := &points[i]
		switch {
		case p.Workload == "multi:jpeg+synth8" && multi == nil:
			multi = p
		case p.Workload == "jpeg" && jpeg == nil:
			jpeg = p
		case p.Workload == "synth" && synth == nil:
			synth = p
		}
	}
	if multi == nil || jpeg == nil || synth == nil {
		t.Fatal("expansion lost a workload")
	}
	if len(multi.Apps) != 2 {
		t.Fatalf("multi point has %d apps", len(multi.Apps))
	}
	if multi.Apps[0].Seed != jpeg.WorkloadSeed {
		t.Fatal("multi jpeg app seed differs from the single jpeg instance seed")
	}
	if multi.Apps[1].Seed != synth.WorkloadSeed || multi.Apps[1].N != 8 {
		t.Fatal("multi synth app does not match the single synth8 instance")
	}
}

// Spec renders the sweep back to the canonical ';'-separated
// dimension-list form of the grammar (see the package comment), with
// dimensions in plat/fab/dvfs/wl/heur/fid order and unset dimensions
// omitted. ParseSweep(s.Spec(), s.Seed) expands to the same points as
// s — including for sweeps that were built from a preset name — which
// is the round-trip property the fuzz targets hold.
func (s *Sweep) Spec() string {
	var dims []string
	add := func(key string, vals []string) {
		if len(vals) > 0 {
			dims = append(dims, key+"="+strings.Join(vals, ","))
		}
	}
	var plats []string
	for _, p := range s.Platforms {
		plats = append(plats, p.Token())
	}
	add("plat", plats)
	add("fab", s.Fabrics)
	var dvfs []string
	for _, d := range s.DVFS {
		dvfs = append(dvfs, strconv.Itoa(d))
	}
	add("dvfs", dvfs)
	var wls []string
	for _, w := range s.Workloads {
		wls = append(wls, w.String())
	}
	add("wl", wls)
	add("heur", s.Heuristics)
	var fids []string
	for _, f := range s.Fidelities {
		fids = append(fids, f.String())
	}
	add("fid", fids)
	var mems []string
	for _, m := range s.Mems {
		mems = append(mems, m.String())
	}
	add("mem", mems)
	return strings.Join(dims, ";")
}
