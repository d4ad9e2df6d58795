package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestDemoAnneal pins the README's invocation: the built-in JPEG case
// study, annealed with seed 7.
func TestDemoAnneal(t *testing.T) {
	golden.Run(t, "testdata/demo_anneal.golden", run, "-demo", "-heuristic", "anneal", "-seed", "7")
}
