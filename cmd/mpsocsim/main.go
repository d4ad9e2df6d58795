// Command mpsocsim prints the tables of the paper's experiments
// (E1–E13b, sections II–VII) from the internal/paper registry. With
// no arguments it prints all of them, byte for byte the content of
// testdata/experiments.golden.
//
// Usage:
//
//	mpsocsim [-exp all|ID[,ID...]]    # for example -exp E4 or -exp E1,E3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpsockit/internal/paper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpsocsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpsocsim", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiments to print: all, or a comma-separated list of IDs (E1..E13b)")
	fs.Parse(args)
	return paper.Write(stdout, *exp)
}
