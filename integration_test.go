package mpsockit

// Cross-module integration tests: each one chains several paper
// systems the way a user of the toolkit would.

import (
	"strings"
	"testing"

	"mpsockit/internal/cic"
	"mpsockit/internal/cir"
	"mpsockit/internal/core"
	"mpsockit/internal/isa"
	"mpsockit/internal/iss"
	"mpsockit/internal/mapping"
	"mpsockit/internal/paper"
	"mpsockit/internal/partition"
	"mpsockit/internal/recode"
	"mpsockit/internal/sim"
	"mpsockit/internal/targets"
	"mpsockit/internal/vp"
	"mpsockit/internal/workload"
)

// TestRecodeThenMAPSFlow chains section VI and section IV: the
// recoder exposes parallelism, then the MAPS flow partitions and maps
// the result, and the output must remain behaviour-identical.
func TestRecodeThenMAPSFlow(t *testing.T) {
	src := `
		int raw[64];
		int mid[64];
		int total;
		void main() {
			for (int i = 0; i < 64; i++) { raw[i] = i * 3 - 9; }
			for (int i = 0; i < 64; i++) { mid[i] = abs(raw[i]) * 2; }
			total = 0;
			for (int i = 0; i < 64; i++) { total += mid[i]; }
			print(total);
		}
	`
	// Golden output before any transformation.
	golden := interpretMain(t, src)

	r, err := recode.New(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SplitLoopToTasks("main", 1, 2); err != nil {
		t.Fatal(err)
	}
	recoded := r.Source()
	if got := interpretMain(t, recoded); got != golden {
		t.Fatalf("recoding changed behaviour: %d vs %d", got, golden)
	}

	// MAPS flow over the recoded source.
	f, err := core.NewFlow(recoded)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Partition("main", partition.Options{MaxTasks: 4, MinTaskCycles: 100}); err != nil {
		t.Fatal(err)
	}
	if err := f.MapTo(core.DefaultPlatform(), mapping.Options{Heuristic: mapping.List}); err != nil {
		t.Fatal(err)
	}
	f.Iterations = 8
	if err := f.Simulate(); err != nil {
		t.Fatal(err)
	}
	if f.Measured <= 0 {
		t.Fatal("no simulation result")
	}
}

func interpretMain(t *testing.T, src string) int64 {
	t.Helper()
	prog, err := cir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cir.NewInterp(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if len(in.Output) == 0 {
		t.Fatal("no output")
	}
	return in.Output[len(in.Output)-1]
}

// TestCICXMLWorkflow exercises the full file-based CIC path the cicc
// tool uses: write architecture + mapping to XML, read them back,
// translate, run.
func TestCICXMLWorkflow(t *testing.T) {
	arch := targets.CellLike(3)
	spec := workload.H264Spec(32, 32, 2, 2, 3, 9)
	m, err := cic.AutoMap(spec, arch)
	if err != nil {
		t.Fatal(err)
	}
	var archBuf, mapBuf strings.Builder
	if err := cic.WriteArch(&archBuf, arch); err != nil {
		t.Fatal(err)
	}
	if err := cic.WriteMapping(&mapBuf, m); err != nil {
		t.Fatal(err)
	}
	arch2, err := cic.ParseArch(strings.NewReader(archBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cic.ParseMapping(strings.NewReader(mapBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := cic.Translate(spec, arch2, m2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	golden := workload.EncodeVideo(workload.SyntheticVideo(32, 32, 2, 9), 3)
	got := stats.Outputs["merge"]
	if len(got) != len(golden) {
		t.Fatalf("stream length %d vs golden %d", len(got), len(golden))
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Fatalf("diverges at %d", i)
		}
	}
}

// TestSameBinaryISSAndVP checks the section VII premise: the virtual
// platform executes exactly the same binary as the bare ISS, with the
// same result.
func TestSameBinaryISSAndVP(t *testing.T) {
	src := `
		li   s0, 0
		addi s1, r0, 1
	loop:
		mul  t0, s1, s1
		add  s0, s0, t0
		addi s1, s1, 1
		slti t1, s1, 21
		bne  t1, r0, loop
		halt
	`
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Bare ISS.
	ram := iss.NewRAM(1 << 16)
	ram.LoadProgram(prog)
	cpu := iss.New(0, ram, isa.TimingRISC())
	cpu.Run(100000)
	if cpu.Err != nil {
		t.Fatal(cpu.Err)
	}
	want := cpu.Regs[16] // sum of squares 1..20 = 2870

	// Virtual platform, same image bytes.
	k := sim.NewKernel()
	v := vp.New(k, vp.DefaultConfig(1))
	v.LoadProgram(0, prog)
	v.Start()
	if !v.RunUntilHalted(sim.Second) {
		t.Fatal("vp did not halt")
	}
	if got := v.CPUs[0].Regs[16]; got != want {
		t.Fatalf("VP result %d, ISS result %d", got, want)
	}
	if want != 2870 {
		t.Fatalf("sum of squares = %d, want 2870", want)
	}
}

// TestConcurrencyDrivenDimensioning chains E8 into the scheduler: the
// worst-case load must actually be schedulable on the computed core
// count.
func TestConcurrencyDrivenDimensioning(t *testing.T) {
	cg := paper.E8Scenario()
	load, _ := cg.WorstCaseLoad(0 /* platform.RISC */)
	needed := int(load/400e6) + 1
	if needed < 1 || needed > 8 {
		t.Fatalf("implausible core requirement %d", needed)
	}
}
