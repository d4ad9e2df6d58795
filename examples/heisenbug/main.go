// The section VII debugging story end to end:
//
//  1. a two-core program races on a shared counter and loses updates;
//     a traditional intrusive probe (halting only the core under
//     debug) makes the defect vanish — a Heisenbug; the virtual
//     platform reproduces it deterministically, and the
//     semaphore-guarded fix is verified on the same platform. These
//     runs are E11 of the internal/paper registry;
//  2. on the virtual platform, a watchpoint + scripted assertion
//     locates the unsynchronized writes, and the trace shows the
//     interleaving.
package main

import (
	"fmt"
	"io"
	"os"

	"mpsockit/internal/debug"
	"mpsockit/internal/isa"
	"mpsockit/internal/paper"
	"mpsockit/internal/script"
	"mpsockit/internal/sim"
	"mpsockit/internal/vp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heisenbug:", err)
		os.Exit(1)
	}
}

func run(_ []string, stdout io.Writer) error {
	// 1. The defect, the Heisenbug, the replay and the fix.
	if err := paper.Write(stdout, "E11"); err != nil {
		return err
	}

	// 2. Diagnose on the virtual platform: watch every write to the
	// counter and assert writes never decrease (lost updates violate
	// monotonic growth of max).
	prog, err := isa.Assemble(debug.RaceProgram(paper.RaceIters))
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	v := vp.New(k, vp.DefaultConfig(2))
	for c := 0; c < 2; c++ {
		v.LoadProgram(c, prog)
	}
	in := script.New(debug.New(v))
	in.Symbols = prog.Symbols
	v.Start()
	err = in.Run(`
		set seen 0
		watch write 0x40000000
		onwatch 1 {
			assert $hit_value > $seen
			set seen $hit_value
		}
		run 5000us
	`)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nVP watchpoint: %d monotonicity violations pinpoint the lost updates\n",
		len(in.Violations))
	fmt.Fprintln(stdout, "last peripheral/memory trace entries:")
	for _, e := range v.Trace.Last(3) {
		fmt.Fprintln(stdout, "  ", e)
	}
	return nil
}
