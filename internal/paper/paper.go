// Package paper is the registry of the experiments that make the
// paper's section claims (II–VII) checkable. Each experiment is typed
// once: a builder returns the values its shape test asserts, and a
// table function formats them. The root benchmarks, cmd/mpsocsim,
// vpdbg -demo-race and the examples all print from here, and
// testdata/experiments.golden pins the tables. docs/paper.md maps each
// experiment to its section, claim and tests.
package paper

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiment is one paper experiment: its ID and the function that
// regenerates its table.
type Experiment struct {
	ID    string
	Table func() (string, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"E1", tableE1}, {"E2", tableE2}, {"E3", tableE3}, {"E4", tableE4},
	{"E5", tableE5}, {"E6", tableE6}, {"E7", tableE7}, {"E8", tableE8},
	{"E9", tableE9}, {"E10", tableE10}, {"E11", tableE11}, {"E12", tableE12},
	{"E13", tableE13}, {"E13b", tableE13b},
}

// Write prints the tables of the experiments ids names: "all", or a
// comma-separated list of IDs, in the order given.
func Write(w io.Writer, ids string) error {
	exps := All
	if ids != "all" {
		exps = nil
		for _, id := range strings.Split(ids, ",") {
			i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == id })
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (want all, or IDs from E1 to E13b)", id)
			}
			exps = append(exps, All[i])
		}
	}
	for _, e := range exps {
		table, err := e.Table()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := io.WriteString(w, table); err != nil {
			return err
		}
	}
	return nil
}
