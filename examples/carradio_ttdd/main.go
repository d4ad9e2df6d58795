// The section III experiment: a car-radio stream chain under
// time-triggered versus data-driven execution, swept over
// execution-time jitter (E4), plus the CSDF buffer-sizing analysis of
// reference [5] (E5), both from the internal/paper registry. The
// data-driven executor never corrupts the stream; the time-triggered
// one silently overwrites and re-reads data as soon as actual times
// exceed their design-time estimates.
package main

import (
	"fmt"
	"io"
	"os"

	"mpsockit/internal/paper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carradio_ttdd:", err)
		os.Exit(1)
	}
}

func run(_ []string, stdout io.Writer) error {
	return paper.Write(stdout, "E4,E5")
}
