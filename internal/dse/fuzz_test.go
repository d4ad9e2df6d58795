package dse

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpsockit/internal/mem"
)

// Fuzz targets for the sweep-spec grammars. Two invariants: no input
// panics a parser (a sweep spec arrives from the command line and
// from shard-file headers, so a crash is a DoS on a merge fleet), and
// accepted input round-trips — parse, render canonically, re-parse —
// to the same parsed form, which is what lets shard headers re-expand
// the spec on any host. CI runs each target briefly
// (`go test -fuzz … -fuzztime 10s`); the committed corpora under
// testdata/fuzz seed the interesting grammar corners.

// maxFuzzPoints bounds cross-product expansion inside fuzz targets: a
// handful of long dimension lists multiply into millions of points,
// which is legal but turns a fuzz iteration into an allocation storm.
const maxFuzzPoints = 1 << 14

// expansionBound overapproximates the point count of a sweep without
// expanding it.
func expansionBound(s *Sweep) int {
	dims := [...]int{
		len(s.Platforms), max1(len(s.Fabrics)), max1(len(s.DVFS)),
		len(s.Workloads), max1(len(s.Heuristics)), max1(len(s.Fidelities)),
		max1(len(s.Mems)),
	}
	bound := 1
	for _, d := range dims {
		bound *= d
		if bound > maxFuzzPoints {
			return bound
		}
	}
	return bound
}

// FuzzParseSweep holds the full-spec round trip: any accepted spec
// renders to a canonical form that re-parses to the same expanded
// point list (seeds included), and the canonical form is a fixed
// point of the rendering. Sweep.Len predicts the expansion's length,
// HashPoints, which reuses repeated platform and workload bytes,
// equals referenceHash, which marshals every point whole, and no two
// points are equal but for their ID. The seeds include tokens repeated
// within a dimension and cal tokens that clamp to one probe count,
// which ParseSweep refuses.
func FuzzParseSweep(f *testing.F) {
	for _, seed := range []string{
		"smoke",
		"default",
		"",
		"plat=homog8,wireless;fab=mesh,bus;dvfs=0,1,2;wl=jpeg,h264,carradio,synth16,jobs32;heur=list,anneal,exhaustive;fid=mvp,pipe8,vp64",
		"plat=2xrisc+4xdsp+1xvliw,8xrisc@600,1xctrl+4xdsp@3200;wl=multi:jpeg+carradio+synth8,jpeg",
		"wl=multi:synth2+synth2;plat=2xrisc",
		"plat=celllike4;;wl= jpeg , carradio ;dvfs=-1",
		"plat=03xrisc@01000;wl=synth02",
		"plat=homog4;wl=jpeg,synth8;heur=list,anneal;fid=mvp,cal:2",
		"fid=cal:32,cal:1,vp64;wl=multi:jpeg+synth4;plat=2xrisc+1xdsp",
		"heur=list,anneal;fid=cal:2,cal:4;plat=homog2;wl=jpeg",
		"plat=homog4;wl=jpeg;mem=ideal,bank:4x2,bw:8",
		"mem=bank:64x8,bw:1024,bank:1x1;plat=wireless;wl=synth8;fid=mvp,vp64",
		"plat=homog2;wl=jpeg;mem=bank:0x2,bank:4,bw:0,dram",
		"plat=homog2,homog2;wl=jpeg",
		"plat=homog2;wl=jpeg;dvfs=1,1",
		"plat=homog2;wl=jpeg;mem=ideal,ideal",
		"plat=homog2;wl=synth8,synth08",
		richSpec,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sw, err := ParseSweep(spec, 1)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if expansionBound(sw) > maxFuzzPoints {
			return
		}
		canon := sw.Spec()
		sw2, err := ParseSweep(canon, 1)
		if err != nil {
			t.Fatalf("canonical spec %q (of %q) does not re-parse: %v", canon, spec, err)
		}
		if again := sw2.Spec(); again != canon {
			t.Fatalf("canonical spec is not a fixed point: %q -> %q", canon, again)
		}
		p1, err1 := sw.Points()
		p2, err2 := sw2.Points()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("expansion errors diverge for %q: %v vs %v", spec, err1, err2)
		}
		if err1 == nil && sw.Len() != len(p1) {
			t.Fatalf("spec %q: Len() = %d, but it expands to %d points", spec, sw.Len(), len(p1))
		}
		if err1 == nil && HashPoints(p1) != HashPoints(p2) {
			t.Fatalf("spec %q and its canonical form %q expand to different points", spec, canon)
		}
		if err1 == nil && HashPoints(p1) != referenceHash(p1) {
			t.Fatalf("spec %q: HashPoints %s, reference %s", spec, HashPoints(p1), referenceHash(p1))
		}
		seen := make(map[string]int, len(p1))
		for _, p := range p1 {
			id := p.ID
			p.ID = 0
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if first, ok := seen[string(b)]; ok {
				t.Fatalf("spec %q expands points %d and %d alike: %s", spec, first, id, b)
			}
			seen[string(b)] = id
		}
	})
}

// FuzzPlatToken holds the plat-dimension token round trip, covering
// both the named presets and the custom core-mix grammar.
func FuzzPlatToken(f *testing.F) {
	for _, seed := range []string{
		"homog8", "mpcore2", "celllike4", "wireless",
		"2xrisc+4xdsp+1xvliw", "8xrisc@600", "1xctrl+4xdsp@3200",
		"64xrisc", "2xRISC@01000", "homog+8", "1xacc@1000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		ps, err := parsePlat(tok)
		if err != nil {
			return
		}
		if n := ps.CoreCount(); n < 1 || n > 65 {
			t.Fatalf("token %q parsed to %d cores", tok, n)
		}
		ps2, err := parsePlat(ps.Token())
		if err != nil {
			t.Fatalf("canonical token %q (of %q) does not re-parse: %v", ps.Token(), tok, err)
		}
		if !reflect.DeepEqual(ps, ps2) {
			t.Fatalf("token %q does not round-trip: %+v vs %+v", tok, ps, ps2)
		}
	})
}

// FuzzFidelityToken holds the fid-dimension token round trip,
// covering mvp/pipeN/vpN and the cal:K calibration grammar: no token
// panics the parser, accepted tokens carry bounded parameters (so a
// hostile shard header cannot demand an unbounded probe fan-out), and
// parse → canonical render → parse is the identity.
func FuzzFidelityToken(f *testing.F) {
	for _, seed := range []string{
		"mvp", "pipe8", "pipe1", "vp64", "vp1",
		"cal:1", "cal:4", "cal:32", "cal:0", "cal:33", "cal:-1",
		"cal:", "cal", "vp", "pipe", "vp064", "cal:04", "cal:+1",
		"pipe1024", "pipe1025", "pipe0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		fs, err := parseFidelity(tok)
		if err != nil {
			return
		}
		switch fs.Kind {
		case "mvp", "pipe", "vp", "cal":
		default:
			t.Fatalf("token %q parsed to unknown kind %q", tok, fs.Kind)
		}
		if fs.Kind == "cal" && (fs.Probes < 1 || fs.Probes > 32) {
			t.Fatalf("token %q parsed to %d probes (want 1..32)", tok, fs.Probes)
		}
		if fs.Kind == "pipe" && (fs.Iterations < 1 || fs.Iterations > maxPipeIterations) {
			t.Fatalf("token %q parsed to %d frames (want 1..%d)", tok, fs.Iterations, maxPipeIterations)
		}
		fs2, err := parseFidelity(fs.String())
		if err != nil {
			t.Fatalf("canonical token %q (of %q) does not re-parse: %v", fs.String(), tok, err)
		}
		if !reflect.DeepEqual(fs, fs2) {
			t.Fatalf("token %q does not round-trip: %+v vs %+v", tok, fs, fs2)
		}
	})
}

// FuzzMemToken holds the mem-dimension token round trip: no token
// panics the parser, accepted tokens carry bounded parameters (a
// hostile shard header cannot demand an unbounded bank array), and
// parse → canonical render → parse is the identity.
func FuzzMemToken(f *testing.F) {
	for _, seed := range []string{
		"ideal", "bank:4x2", "bank:1x1", "bank:64x8", "bw:8", "bw:1024",
		"bank:0x2", "bank:65x1", "bank:4x9", "bank:4", "bank:x", "bank:2x",
		"bw:0", "bw:1025", "bw:-1", "bw:", "bw", "bank:04x02", "dram",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		ms, err := mem.ParseSpec(tok)
		if err != nil {
			return
		}
		switch ms.Kind {
		case "ideal", "bank", "bw":
		default:
			t.Fatalf("token %q parsed to unknown kind %q", tok, ms.Kind)
		}
		if ms.Kind == "bank" && (ms.Banks < 1 || ms.Banks > mem.MaxBanks || ms.Channels < 1 || ms.Channels > mem.MaxChannels) {
			t.Fatalf("token %q parsed to unbounded geometry %dx%d", tok, ms.Banks, ms.Channels)
		}
		if ms.Kind == "bw" && (ms.GBps < 1 || ms.GBps > mem.MaxGBps) {
			t.Fatalf("token %q parsed to unbounded bandwidth %d", tok, ms.GBps)
		}
		ms2, err := mem.ParseSpec(ms.String())
		if err != nil {
			t.Fatalf("canonical token %q (of %q) does not re-parse: %v", ms.String(), tok, err)
		}
		if !reflect.DeepEqual(ms, ms2) {
			t.Fatalf("token %q does not round-trip: %+v vs %+v", tok, ms, ms2)
		}
	})
}

// FuzzWorkloadToken holds the wl-dimension token round trip,
// including the multi: scenario grammar.
func FuzzWorkloadToken(f *testing.F) {
	for _, seed := range []string{
		"jpeg", "h264", "carradio", "synth16", "jobs32",
		"multi:jpeg+carradio+synth8", "multi:synth2+synth2", "multi:h264",
		"synth512", "jobs02", "multi:jpeg+jpeg+jpeg+jpeg+jpeg+jpeg+jpeg+jpeg",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		w, err := parseWorkload(tok)
		if err != nil {
			return
		}
		w2, err := parseWorkload(w.String())
		if err != nil {
			t.Fatalf("canonical token %q (of %q) does not re-parse: %v", w.String(), tok, err)
		}
		if !reflect.DeepEqual(w, w2) {
			t.Fatalf("token %q does not round-trip: %+v vs %+v", tok, w, w2)
		}
		for _, a := range w.Apps {
			if a.Kind == "jobs" || a.Kind == "multi" {
				t.Fatalf("token %q admitted %q into a multi scenario", tok, a.Kind)
			}
		}
	})
}

// FuzzReadLog holds ReadLog's one damage policy over a valid header
// followed by arbitrary bytes: no panic; Torn only when the damage is
// on the last line; an error, never a truncated result list, when a
// damaged line has data after it; every Raw line decodes to its
// Result; and no line is kept past MaxLineBytes. The oracle is a plain
// newline-split model of the policy. The seeds are the torn-tail and
// mid-file shapes of TestCheckpointTornTailSalvage and
// TestCheckpointMidFileCorruptionIsLoud.
func FuzzReadLog(f *testing.F) {
	const valid = `{"point":{"id":0},"metrics":{}}` + "\n"
	for _, body := range []string{
		"",
		valid,
		valid + `{"point":{"id`,
		valid + "{\"err\":\"\xe2\x82",
		valid + "not json at all\n",
		valid + strings.Repeat("\xff", 4096),
		valid + "{\"point\":{\"id\n" + valid,
		valid + strings.Repeat("\xfe", 64) + "\n" + valid,
		valid + "\n" + valid,
	} {
		f.Add([]byte(body))
	}
	_, h, err := Expand(onePointSpec, 9)
	if err != nil {
		f.Fatal(err)
	}
	var header bytes.Buffer
	if err := WriteHeader(&header, h); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "log.jsonl")
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, append(bytes.Clone(header.Bytes()), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := ReadLog(path)

		var want []Result
		torn, corrupt := false, false
		for rest := body; len(rest) > 0; {
			line, after, found := bytes.Cut(rest, []byte("\n"))
			var r Result
			if !found || len(line) >= MaxLineBytes || json.Unmarshal(line, &r) != nil {
				torn, corrupt = len(after) == 0, len(after) > 0
				break
			}
			want = append(want, r)
			rest = after
		}

		if corrupt {
			if err == nil || lg != nil {
				t.Fatalf("damage before the last line read as %+v, %v; want an error and no results", lg, err)
			}
			return
		}
		if err != nil || lg == nil {
			t.Fatalf("ReadLog = %+v, %v; want a log", lg, err)
		}
		if lg.Torn != torn || !reflect.DeepEqual(lg.Results, want) || len(lg.Raw) != len(want) {
			t.Fatalf("read %d results (torn %v), want %d (torn %v)", len(lg.Results), lg.Torn, len(want), torn)
		}
		for i, raw := range lg.Raw {
			var r Result
			if len(raw) >= MaxLineBytes || json.Unmarshal(raw, &r) != nil || !reflect.DeepEqual(r, lg.Results[i]) {
				t.Fatalf("Raw[%d] does not decode to Results[%d]", i, i)
			}
		}
	})
}
