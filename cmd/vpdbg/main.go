// Command vpdbg boots MR32 binaries on the virtual platform and runs
// a debug script against them (paper section VII): breakpoints,
// watchpoints, system-level assertions, trace dumps.
//
// Usage:
//
//	vpdbg [-cores N] [-script dbg.tcl] [-trace] prog.s [prog2.s ...]
//	vpdbg -demo-race   # print the Heisenbug experiment E11
package main

import (
	"errors"
	"flag"
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
		fmt.Fprintln(os.Stderr, "vpdbg:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vpdbg", flag.ExitOnError)
	cores := fs.Int("cores", 1, "number of cores (programs repeat across cores)")
	scriptPath := fs.String("script", "", "debug script to run")
	traceDump := fs.Bool("trace", false, "dump the trace buffer at exit")
	demoRace := fs.Bool("demo-race", false, "print the Heisenbug race experiment (E11)")
	quantum := fs.Int("quantum", 1, "temporal-decoupling quantum in instructions per kernel event (1 = precise; debugging hooks force precise)")
	fs.Parse(args)

	if *quantum < 1 {
		return errors.New("-quantum must be >= 1")
	}
	if *demoRace {
		return paper.Write(stdout, "E11")
	}
	if fs.NArg() == 0 {
		return errors.New("usage: vpdbg [-cores N] [-script s.tcl] prog.s ...")
	}
	var progs []*isa.Program
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p, err := isa.Assemble(string(data))
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	k := sim.NewKernel()
	cfg := vp.DefaultConfig(*cores)
	cfg.Quantum = *quantum
	v := vp.New(k, cfg)
	for c := 0; c < *cores; c++ {
		v.LoadProgram(c, progs[c%len(progs)])
	}
	in := script.New(debug.New(v))
	in.Symbols = progs[0].Symbols
	v.Start()

	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			return err
		}
		if err := in.Run(string(data)); err != nil {
			return err
		}
	} else {
		v.RunUntilHalted(sim.Second)
	}
	for _, o := range in.Out {
		fmt.Fprintln(stdout, o)
	}
	for _, viol := range in.Violations {
		fmt.Fprintln(stdout, "VIOLATION:", viol)
	}
	for c := 0; c < *cores; c++ {
		if len(v.Console[c]) > 0 {
			fmt.Fprintf(stdout, "console core%d: %v\n", c, v.Console[c])
		}
	}
	if *traceDump {
		fmt.Fprint(stdout, v.Trace.Dump())
	}
	return nil
}
