// Command mapsc drives the MAPS-style toolflow (paper section IV):
// it reads a sequential C-subset source file, extracts a coarse task
// graph, maps it to an MPSoC platform, and simulates the result.
//
// Usage:
//
//	mapsc [-tasks N] [-min-cycles C] [-platform wireless|homog16]
//	      [-heuristic list|anneal|exhaustive] [-seed S] [-frames N] file.c
//	mapsc -demo     # run the built-in JPEG case study
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpsockit/internal/core"
	"mpsockit/internal/mapping"
	"mpsockit/internal/partition"
	"mpsockit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mapsc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mapsc", flag.ExitOnError)
	tasks := fs.Int("tasks", 4, "maximum number of coarse tasks")
	minCycles := fs.Int64("min-cycles", 500, "granularity floor in RISC cycles")
	plat := fs.String("platform", "wireless", "target platform: wireless or homog16")
	heuristic := fs.String("heuristic", "list", "mapping heuristic: list, anneal or exhaustive")
	seed := fs.Uint64("seed", 1, "seed for the annealing mapper (reproducible runs)")
	frames := fs.Int("frames", 32, "pipelined iterations to simulate")
	fn := fs.String("fn", "main", "function to partition")
	demo := fs.Bool("demo", false, "run the built-in JPEG case study")
	fs.Parse(args)

	var src string
	switch {
	case *demo:
		src = workload.JPEGSourceCIR
		fmt.Fprintln(stdout, "mapsc: using the built-in JPEG pipeline (section IV case study)")
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		fs.Usage()
		return errors.New("want -demo or one source file")
	}

	f, err := core.NewFlow(src)
	if err != nil {
		return err
	}
	if err := f.Partition(*fn, partition.Options{MaxTasks: *tasks, MinTaskCycles: *minCycles}); err != nil {
		return err
	}
	f.ApplyPragmas(*fn)

	heur, err := mapping.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}
	target := core.DefaultPlatform()
	if *plat == "homog16" {
		target = core.HomogeneousPlatform(16, 1_000_000_000)
	}
	if err := f.MapTo(target, mapping.Options{Heuristic: heur, Seed: *seed}); err != nil {
		return err
	}
	f.Iterations = *frames
	if err := f.Simulate(); err != nil {
		return err
	}
	fmt.Fprint(stdout, f.Report())
	return nil
}
