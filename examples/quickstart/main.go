// Quickstart: take a small sequential program through the whole
// toolkit — parse, analyze, partition (MAPS, section IV), map to a
// heterogeneous MPSoC, and simulate the pipelined execution.
package main

import (
	"fmt"
	"io"
	"os"

	"mpsockit/internal/core"
	"mpsockit/internal/mapping"
	"mpsockit/internal/partition"
)

const src = `
	int in[128];
	int mid[128];
	int out[128];

	void main() {
		for (int i = 0; i < 128; i++) {
			mid[i] = in[i] * in[i] + 3;
		}
		for (int i = 0; i < 128; i++) {
			out[i] = mid[i] / 2 - mid[i] / 16;
		}
		int sum = 0;
		for (int i = 0; i < 128; i++) {
			sum += out[i];
		}
		print(sum);
	}
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(_ []string, stdout io.Writer) error {
	flow, err := core.NewFlow(src)
	if err != nil {
		return err
	}
	if err := flow.Partition("main", partition.Options{MaxTasks: 3, MinTaskCycles: 500}); err != nil {
		return err
	}
	if err := flow.MapTo(core.DefaultPlatform(), mapping.Options{Heuristic: mapping.List}); err != nil {
		return err
	}
	flow.Iterations = 16
	if err := flow.Simulate(); err != nil {
		return err
	}
	fmt.Fprint(stdout, flow.Report())
	return nil
}
