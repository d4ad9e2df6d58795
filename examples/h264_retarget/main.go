// The HOPES/CIC retargeting study (paper section V): one
// target-independent H.264-like CIC specification is translated to a
// Cell-like distributed-memory machine and an MPCore-like SMP. The
// synthesized interface code differs per target; the encoded stream
// is byte-identical — "from the same CIC specification, we also
// generated a parallel program for an MPCore processor … which
// confirms the retargetability of the CIC model". The study is E9 of
// the internal/paper registry.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"mpsockit/internal/paper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "h264_retarget:", err)
		os.Exit(1)
	}
}

func run(_ []string, stdout io.Writer) error {
	res, err := paper.E9()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "golden sequential encoder: %d-int stream\n\n", len(res.Sequential))
	for i, t := range []struct {
		title, via string
		paper.E9Target
	}{
		{"Cell-like (DMA message passing)", "over the DMA fabric", res.Cell},
		{"MPCore-like SMP (lock-protected shared FIFOs)", "through shared memory", res.SMP},
	} {
		fmt.Fprintf(stdout, "--- target %d: %s ---\n", i+1, t.title)
		fmt.Fprint(stdout, t.Program.Report)
		fmt.Fprintf(stdout, "makespan %v, %d bytes %s\n\n", t.Stats.Makespan, t.Stats.BytesMoved, t.via)
	}
	fmt.Fprintf(stdout, "streams identical across both targets and the golden model: %v\n", res.MatchesSequential)
	if !res.MatchesSequential {
		return errors.New("retargetability broken")
	}
	return nil
}
