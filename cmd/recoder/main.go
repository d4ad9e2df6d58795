// Command recoder is the designer-controlled Source Recoder (paper
// section VI) as a batch tool: it reads a C-subset source and a list
// of transformation commands, applies them, and emits the recoded
// source plus the productivity journal.
//
// Command syntax (one per -op flag, applied in order):
//
//	split FN LOOPIDX K          split a loop in place
//	tasks FN LOOPIDX K          outline a loop into K task functions
//	vector ARR                  split a task-private vector
//	localize VAR                demote a single-user global
//	channel PROD CONS ARR ID    replace a shared array with a channel
//	pointers FN                 recode pointer arithmetic
//	prune FN                    fold constants, drop dead branches
//	analyze FN                  print the shared-data report
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mpsockit/internal/recode"
)

type opList []string

func (o *opList) String() string     { return strings.Join(*o, "; ") }
func (o *opList) Set(s string) error { *o = append(*o, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "recoder:", err)
		os.Exit(1)
	}
}

// run writes the recoded source to stdout (or -o) and the journal to
// stderr, so the source can be piped on.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("recoder", flag.ExitOnError)
	var ops opList
	fs.Var(&ops, "op", "transformation to apply (repeatable)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("usage: recoder -op '...' [-op '...'] file.c")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	r, err := recode.New(string(data))
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := apply(r, op); err != nil {
			return fmt.Errorf("op %q: %w", op, err)
		}
	}
	src := r.Source()
	if *out == "" {
		fmt.Fprint(stdout, src)
	} else if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recoder: %d designer actions, ~%d manual lines saved (%.1fx per action)\n",
		len(r.Journal), r.ManualEditEstimate(), r.ProductivityFactor())
	for _, j := range r.Journal {
		fmt.Fprintf(os.Stderr, "  %-22s %-16s %s (%d lines)\n", j.Name, j.Target, j.Detail, j.LinesTouched)
	}
	return nil
}

// arity is the number of words of each -op command, its name included.
var arity = map[string]int{"split": 4, "tasks": 4, "vector": 2, "localize": 2, "channel": 5, "pointers": 2, "prune": 2, "analyze": 2}

// apply runs one -op command on r.
func apply(r *recode.Recoder, op string) error {
	f := strings.Fields(op)
	if len(f) == 0 {
		return errors.New("empty op")
	}
	if n, ok := arity[f[0]]; !ok {
		return fmt.Errorf("unknown op %q", f[0])
	} else if len(f) != n {
		return fmt.Errorf("%s takes %d arguments", f[0], n-1)
	}
	switch f[0] {
	case "split", "tasks":
		idx, err1 := strconv.Atoi(f[2])
		k, err2 := strconv.Atoi(f[3])
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if f[0] == "split" {
			return r.SplitLoop(f[1], idx, k)
		}
		return r.SplitLoopToTasks(f[1], idx, k)
	case "vector":
		return r.SplitVector(f[1])
	case "localize":
		return r.LocalizeVariable(f[1])
	case "channel":
		id, err := strconv.Atoi(f[4])
		if err != nil {
			return err
		}
		return r.InsertChannel(f[1], f[2], f[3], id)
	case "pointers":
		return r.RecodePointers(f[1])
	case "prune":
		return r.PruneControl(f[1])
	default: // analyze
		rep, err := r.AnalyzeShared(f[1])
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, rep)
		return nil
	}
}
