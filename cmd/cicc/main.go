// Command cicc is the CIC translator front end (paper section V): it
// takes the built-in H.264-like CIC specification, an architecture
// selection (or XML file), translates, optionally dumps the
// synthesized per-processor code, and runs the result.
//
// Usage:
//
//	cicc [-arch cell|smp|file.xml] [-dump] [-emit-arch out.xml]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mpsockit/internal/cic"
	"mpsockit/internal/targets"
	"mpsockit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cicc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cicc", flag.ExitOnError)
	archFlag := fs.String("arch", "cell", "target: cell, smp, or a path to an architecture XML file")
	dump := fs.Bool("dump", false, "print the synthesized per-processor sources")
	emitArch := fs.String("emit-arch", "", "write the selected architecture as XML and exit")
	workers := fs.Int("workers", 3, "parallel encoder workers in the CIC spec")
	fs.Parse(args)

	var arch *cic.ArchInfo
	switch *archFlag {
	case "cell":
		arch = targets.CellLike(4)
	case "smp":
		arch = targets.SMP(4)
	default:
		f, err := os.Open(*archFlag)
		if err != nil {
			return err
		}
		a, err := cic.ParseArch(f)
		f.Close()
		if err != nil {
			return err
		}
		arch = a
	}

	if *emitArch != "" {
		f, err := os.Create(*emitArch)
		if err != nil {
			return err
		}
		if err := cic.WriteArch(f, arch); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "cicc: wrote", *emitArch)
		return nil
	}

	spec := workload.H264Spec(64, 48, 3, *workers, 3, 5)
	fmt.Fprintf(stdout, "cicc: translating %s onto %s\n", spec.Name, arch.Name)
	m, err := cic.AutoMap(spec, arch)
	if err != nil {
		return err
	}
	tp, err := cic.Translate(spec, arch, m)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, tp.Report)
	if *dump {
		var names []string
		for name := range tp.Generated {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "\n===== %s =====\n%s", name, tp.Generated[name])
		}
	}
	stats, err := tp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run: makespan %v, %d bytes moved, %d output ints\n",
		stats.Makespan, stats.BytesMoved, len(stats.Outputs["merge"]))
	return nil
}
