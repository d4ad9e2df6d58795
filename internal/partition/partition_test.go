package partition

import (
	"strings"
	"testing"

	"mpsockit/internal/cir"
	"mpsockit/internal/platform"
)

// pipelineSrc is a JPEG-shaped three-stage pipeline over global
// arrays: the canonical MAPS partitioning example.
const pipelineSrc = `
	int input[256];
	int coeff[256];
	int quant[256];
	int packed[256];

	void main() {
		for (int i = 0; i < 256; i++) {
			coeff[i] = input[i] * 7 - input[i] / 3;
		}
		for (int i = 0; i < 256; i++) {
			quant[i] = coeff[i] / 16;
		}
		for (int i = 0; i < 256; i++) {
			packed[i] = quant[i] & 255;
		}
	}
`

func TestPartitionPipeline(t *testing.T) {
	prog := cir.MustParse(pipelineSrc)
	res, err := Partition(prog, "main", Options{MaxTasks: 3, MinTaskCycles: 1, ElementBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3\n%s", len(res.Graph.Tasks), res.Report)
	}
	// Pipeline shape: t0 -> t1 -> t2.
	if len(res.Graph.Edges) != 2 {
		t.Fatalf("edges = %v", res.Graph.Edges)
	}
	for i, e := range res.Graph.Edges {
		if e.From != i || e.To != i+1 {
			t.Fatalf("edge %d is %d->%d", i, e.From, e.To)
		}
		if e.Bytes != 256*4 {
			t.Fatalf("edge volume %d, want 1024", e.Bytes)
		}
	}
	// Every stage is a parallelizable loop.
	if len(res.Parallelism) != 3 {
		t.Fatalf("parallelism notes = %v", res.Parallelism)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRespectsMaxTasks(t *testing.T) {
	prog := cir.MustParse(pipelineSrc)
	res, err := Partition(prog, "main", Options{MaxTasks: 2, MinTaskCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Tasks) != 2 {
		t.Fatalf("tasks = %d, want 2", len(res.Graph.Tasks))
	}
}

func TestPartitionGranularityFloor(t *testing.T) {
	// Tiny statements must be absorbed into neighbours.
	prog := cir.MustParse(`
		int a;
		int b[64];
		int c[64];
		void main() {
			a = 1;
			for (int i = 0; i < 64; i++) { b[i] = a + i; }
			for (int i = 0; i < 64; i++) { c[i] = b[i] * 2; }
		}
	`)
	res, err := Partition(prog, "main", Options{MaxTasks: 8, MinTaskCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	for ci, stmts := range res.Clusters {
		_ = stmts
		_ = ci
	}
	// The scalar assignment (few cycles) must not be a task by itself.
	if len(res.Graph.Tasks) > 2 {
		t.Fatalf("granularity floor ignored: %d tasks\n%s", len(res.Graph.Tasks), res.Report)
	}
}

func TestPartitionPinning(t *testing.T) {
	prog := cir.MustParse(pipelineSrc)
	// Designer pins stages 0 and 2 together (say they share a lookup
	// table on the target).
	res, err := Partition(prog, "main", Options{MaxTasks: 3, MinTaskCycles: 1, Pin: [][]int{{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	foundTogether := false
	for _, stmts := range res.Clusters {
		has0, has2 := false, false
		for _, s := range stmts {
			if s == 0 {
				has0 = true
			}
			if s == 2 {
				has2 = true
			}
		}
		if has0 && has2 {
			foundTogether = true
		}
	}
	if !foundTogether {
		t.Fatalf("pinned statements separated: %v", res.Clusters)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("pinned graph invalid: %v", err)
	}
}

func TestPartitionHeterogeneousWCET(t *testing.T) {
	prog := cir.MustParse(`
		int x[128];
		int y[128];
		void main() {
			for (int i = 0; i < 128; i++) {
				y[i] = x[i] * x[i] * x[i];
			}
		}
	`)
	res, err := Partition(prog, "main", Options{MaxTasks: 1, MinTaskCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := res.Graph.Tasks[0]
	if task.WCET[platform.DSP] >= task.WCET[platform.RISC] {
		t.Fatalf("DSP WCET %d should beat RISC %d on multiply-heavy task",
			task.WCET[platform.DSP], task.WCET[platform.RISC])
	}
}

func TestPartitionErrors(t *testing.T) {
	prog := cir.MustParse("void main() { int x = 0; x += 1; }")
	if _, err := Partition(prog, "nosuch", Options{MaxTasks: 4, MinTaskCycles: 2000, ElementBytes: 4}); err == nil {
		t.Fatal("missing function accepted")
	}
	if _, err := Partition(prog, "main", Options{Pin: [][]int{{0, 99}}}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

func TestPartitionReportReadable(t *testing.T) {
	prog := cir.MustParse(pipelineSrc)
	res, err := Partition(prog, "main", Options{MaxTasks: 3, MinTaskCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MAPS partition", "task 0", "edge t0 -> t1", "data-parallel"} {
		if !strings.Contains(res.Report, want) {
			t.Fatalf("report lacks %q:\n%s", want, res.Report)
		}
	}
}

func TestPartitionInterleavedDepsStayAcyclic(t *testing.T) {
	// A structure where naive merging would create a cluster cycle:
	// s0 -> s1 -> s2, s0 -> s3, s2 and s0 tempting to merge.
	prog := cir.MustParse(`
		int a[32];
		int b[32];
		int c[32];
		int d[32];
		void main() {
			for (int i = 0; i < 32; i++) { b[i] = a[i] + 1; }
			for (int i = 0; i < 32; i++) { c[i] = b[i] + b[31 - i]; }
			for (int i = 0; i < 32; i++) { d[i] = c[i] + a[i]; }
			for (int i = 0; i < 32; i++) { a[i] = 0; }
		}
	`)
	for _, maxTasks := range []int{1, 2, 3, 4} {
		res, err := Partition(prog, "main", Options{MaxTasks: maxTasks, MinTaskCycles: 1})
		if err != nil {
			t.Fatalf("maxTasks=%d: %v", maxTasks, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("maxTasks=%d produced cyclic graph: %v", maxTasks, err)
		}
	}
}
