package cic

import (
	"bytes"
	"strings"
	"testing"
)

// testSpec builds a 4-stage pipeline: gen -> scale -> offset -> sink,
// computing (i*3+7) over n tokens with checkable output.
func testSpec(n int) *Spec {
	cyc := func(c int64) map[string]int64 {
		return map[string]int64{"CTRL": c, "DSP": c / 2, "RISC": c * 2}
	}
	return &Spec{
		Name: "pipeline",
		Tasks: []*TaskSpec{
			{
				Name: "gen", Firings: n,
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: cyc(2000),
				CodeBytes:       4 << 10, DataBytes: 1 << 10,
				Go: func(ctx *TaskCtx) { ctx.Write("o", int32(ctx.Firing)) },
			},
			{
				Name: "scale", Firings: n,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: cyc(6000),
				CodeBytes:       8 << 10, DataBytes: 2 << 10,
				Go: func(ctx *TaskCtx) { ctx.Write("o", ctx.Read("i")[0]*3) },
			},
			{
				Name: "offset", Firings: n,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: cyc(4000),
				CodeBytes:       6 << 10, DataBytes: 2 << 10,
				Go: func(ctx *TaskCtx) { ctx.Write("o", ctx.Read("i")[0]+7) },
			},
			{
				Name: "sink", Firings: n,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: cyc(1000),
				CodeBytes:       2 << 10, DataBytes: 1 << 10,
				Go: func(ctx *TaskCtx) { ctx.Emit(ctx.Read("i")[0]) },
			},
		},
		Channels: []*ChannelSpec{
			{Name: "c0", SrcTask: "gen", SrcPort: "o", DstTask: "scale", DstPort: "i", Depth: 4},
			{Name: "c1", SrcTask: "scale", SrcPort: "o", DstTask: "offset", DstPort: "i", Depth: 4},
			{Name: "c2", SrcTask: "offset", SrcPort: "o", DstTask: "sink", DstPort: "i", Depth: 4},
		},
	}
}

func dmaArch() *ArchInfo {
	return &ArchInfo{
		Name: "cell2",
		Interconnect: InterconnectInfo{
			Type: "dma", BytesPerNS: 16, HopLatencyNS: 2, DMASetupNS: 100,
		},
		Processors: []ProcessorInfo{
			{Name: "ppe", Class: "CTRL", ClockHz: 3_200_000_000, LocalMemBytes: 512 << 10},
			{Name: "spe0", Class: "DSP", ClockHz: 3_200_000_000, LocalMemBytes: 256 << 10},
			{Name: "spe1", Class: "DSP", ClockHz: 3_200_000_000, LocalMemBytes: 256 << 10},
		},
	}
}

func smpArch() *ArchInfo {
	return &ArchInfo{
		Name:           "smp4",
		SharedMemBytes: 1 << 20,
		Interconnect: InterconnectInfo{
			Type: "sharedmem", BytesPerNS: 4, HopLatencyNS: 5, LockCycles: 100,
		},
		Processors: []ProcessorInfo{
			{Name: "cpu0", Class: "RISC", ClockHz: 600_000_000, LocalMemBytes: 512 << 10},
			{Name: "cpu1", Class: "RISC", ClockHz: 600_000_000, LocalMemBytes: 512 << 10},
			{Name: "cpu2", Class: "RISC", ClockHz: 600_000_000, LocalMemBytes: 512 << 10},
			{Name: "cpu3", Class: "RISC", ClockHz: 600_000_000, LocalMemBytes: 512 << 10},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	if err := testSpec(8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testSpec(8)
	bad.Channels[0].Depth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-depth channel accepted")
	}
	bad2 := testSpec(8)
	bad2.Tasks[0].Firings = 7 // unbalances every channel
	if err := bad2.Validate(); err == nil {
		t.Fatal("unbalanced rates accepted")
	}
	bad3 := testSpec(8)
	bad3.Channels = bad3.Channels[1:] // scale.i unconnected
	if err := bad3.Validate(); err == nil {
		t.Fatal("dangling port accepted")
	}
}

func TestArchXMLRoundTrip(t *testing.T) {
	arch := dmaArch()
	var buf bytes.Buffer
	if err := WriteArch(&buf, arch); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseArch(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if parsed.Name != arch.Name || len(parsed.Processors) != 3 {
		t.Fatalf("round trip lost data: %+v", parsed)
	}
	if parsed.Interconnect.Type != "dma" || parsed.Interconnect.DMASetupNS != 100 {
		t.Fatalf("interconnect lost: %+v", parsed.Interconnect)
	}
}

func TestMappingXMLRoundTrip(t *testing.T) {
	m := &Mapping{Entries: []MapEntry{{Task: "gen", Processor: "ppe"}, {Task: "sink", Processor: "spe0"}}}
	var buf bytes.Buffer
	if err := WriteMapping(&buf, m); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseMapping(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Of("gen") != "ppe" || parsed.Of("sink") != "spe0" {
		t.Fatalf("mapping lost: %+v", parsed)
	}
}

func TestAutoMapBalances(t *testing.T) {
	m, err := AutoMap(testSpec(16), dmaArch())
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, e := range m.Entries {
		used[e.Processor] = true
	}
	if len(used) < 2 {
		t.Fatalf("automap used only %v", used)
	}
}

func TestTranslateValidations(t *testing.T) {
	spec := testSpec(8)
	arch := dmaArch()
	// Unmapped task.
	if _, err := Translate(spec, arch, &Mapping{}); err == nil {
		t.Fatal("empty mapping accepted")
	}
	// Unknown processor.
	m := &Mapping{Entries: []MapEntry{
		{Task: "gen", Processor: "nosuch"}, {Task: "scale", Processor: "spe0"},
		{Task: "offset", Processor: "spe1"}, {Task: "sink", Processor: "ppe"},
	}}
	if _, err := Translate(spec, arch, m); err == nil {
		t.Fatal("unknown processor accepted")
	}
	// Memory constraint: blow up a task's data segment.
	big := testSpec(8)
	big.Task("scale").DataBytes = 10 << 20
	am, _ := AutoMap(big, arch)
	if _, err := Translate(big, arch, am); err == nil {
		t.Fatal("memory constraint violation accepted")
	} else if !strings.Contains(err.Error(), "design constraint") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestGeneratedCodeShape(t *testing.T) {
	spec := testSpec(8)
	arch := dmaArch()
	m, err := AutoMap(spec, arch)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Translate(spec, arch, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Generated) != len(arch.Processors)+1 {
		t.Fatalf("generated %d files", len(tp.Generated))
	}
	joined := ""
	for _, src := range tp.Generated {
		joined += src
	}
	for _, want := range []string{"rt_dma_send", "dma_desc_t", "rt_run_static_order", "cic_task_t"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("dma codegen lacks %q", want)
		}
	}
	if strings.Contains(joined, "rt_shm_send") {
		t.Fatal("dma target emitted shared-memory primitives")
	}
	// SMP target uses the other primitive set.
	smp := smpArch()
	m2, _ := AutoMap(spec, smp)
	tp2, err := Translate(spec, smp, m2)
	if err != nil {
		t.Fatal(err)
	}
	joined2 := ""
	for _, src := range tp2.Generated {
		joined2 += src
	}
	if !strings.Contains(joined2, "rt_shm_send") || strings.Contains(joined2, "rt_dma_send") {
		t.Fatal("smp codegen primitives wrong")
	}
	if tp.GeneratedLines() == 0 || tp2.GeneratedLines() == 0 {
		t.Fatal("no generated lines counted")
	}
}

func TestRunProducesCorrectOutput(t *testing.T) {
	const n = 32
	spec := testSpec(n)
	arch := dmaArch()
	m, _ := AutoMap(spec, arch)
	tp, err := Translate(spec, arch, m)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := stats.Outputs["sink"]
	if len(out) != n {
		t.Fatalf("sink emitted %d values, want %d", len(out), n)
	}
	for i, v := range out {
		if v != int32(i*3+7) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3+7)
		}
	}
	if stats.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if stats.BytesMoved == 0 {
		t.Fatal("pipeline spread over processors moved no bytes?")
	}
}

// TestRetargetability is the core section V check: one spec, two
// architectures, identical outputs.
func TestRetargetability(t *testing.T) {
	const n = 24
	run := func(arch *ArchInfo) *RunStats {
		spec := testSpec(n) // fresh spec (task closures are stateful per run)
		m, err := AutoMap(spec, arch)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := Translate(spec, arch, m)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	cell := run(dmaArch())
	smp := run(smpArch())
	a, b := cell.Outputs["sink"], smp.Outputs["sink"]
	if len(a) != len(b) {
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Different targets, different performance characteristics.
	if cell.Makespan == smp.Makespan {
		t.Fatal("suspiciously identical makespans across targets")
	}
}

func TestRunDeadlockDetected(t *testing.T) {
	// Two tasks in a channel cycle with empty buffers: deadlock.
	spec := &Spec{
		Name: "dl",
		Tasks: []*TaskSpec{
			{
				Name: "a", Firings: 2,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: map[string]int64{"CTRL": 100, "DSP": 100},
				Go:              func(ctx *TaskCtx) { ctx.Write("o", ctx.Read("i")[0]) },
			},
			{
				Name: "b", Firings: 2,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: map[string]int64{"CTRL": 100, "DSP": 100},
				Go:              func(ctx *TaskCtx) { ctx.Write("o", ctx.Read("i")[0]) },
			},
		},
		Channels: []*ChannelSpec{
			{Name: "ab", SrcTask: "a", SrcPort: "o", DstTask: "b", DstPort: "i", Depth: 2},
			{Name: "ba", SrcTask: "b", SrcPort: "o", DstTask: "a", DstPort: "i", Depth: 2},
		},
	}
	arch := dmaArch()
	m, _ := AutoMap(spec, arch)
	tp, err := Translate(spec, arch, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Run(); err == nil {
		t.Fatal("deadlock not reported")
	} else if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestStatefulTask(t *testing.T) {
	spec := &Spec{
		Name: "acc",
		Tasks: []*TaskSpec{
			{
				Name: "gen", Firings: 5,
				Out:             []PortSpec{{Name: "o", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: map[string]int64{"CTRL": 100, "DSP": 100},
				Go:              func(ctx *TaskCtx) { ctx.Write("o", 2) },
			},
			{
				Name: "accum", Firings: 5,
				In:              []PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
				CyclesPerFiring: map[string]int64{"CTRL": 100, "DSP": 100},
				Go: func(ctx *TaskCtx) {
					s := ctx.State("sum") + ctx.Read("i")[0]
					ctx.SetState("sum", s)
				},
				Wrapup: func(ctx *TaskCtx) { ctx.Emit(ctx.State("sum")) },
			},
		},
		Channels: []*ChannelSpec{
			{Name: "c", SrcTask: "gen", SrcPort: "o", DstTask: "accum", DstPort: "i", Depth: 2},
		},
	}
	arch := dmaArch()
	m, _ := AutoMap(spec, arch)
	tp, err := Translate(spec, arch, m)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Outputs["accum"]; len(got) != 1 || got[0] != 10 {
		t.Fatalf("accumulated %v, want [10]", got)
	}
}
