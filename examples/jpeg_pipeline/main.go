// The MAPS JPEG case study (paper section IV): partition the
// sequential JPEG-like encoder into a task pipeline, sweep the task
// count, and report the speedup on the wireless-terminal platform —
// "initial case studies on partitioning applications like JPEG
// encoder indicate promising speedup results". The sweep is E6 of the
// internal/paper registry.
//
// Also runs the real (Go) JPEG block pipeline on a test image so the
// workload itself is demonstrably functional.
package main

import (
	"fmt"
	"io"
	"os"

	"mpsockit/internal/paper"
	"mpsockit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jpeg_pipeline:", err)
		os.Exit(1)
	}
}

func run(_ []string, stdout io.Writer) error {
	// 1. The functional encoder on a synthetic image.
	img := workload.TestImage(64, 64, 1)
	stream := workload.EncodeJPEG(img, 64, 64, 4)
	fmt.Fprintf(stdout, "functional encoder: 64x64 image -> %d-symbol stream\n\n", len(stream))

	// 2. The MAPS flow over the C-subset version, swept over the task
	// count.
	if err := paper.Write(stdout, "E6"); err != nil {
		return err
	}

	// 3. Full detail for the best configuration.
	flow, err := paper.JPEGFlow(4, 32)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, flow.Report())
	return nil
}
