package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestScriptedWatch pins a scripted run: a watchpoint on the shared
// sum, an assertion that flags each write over the limit, and the
// program's console output.
func TestScriptedWatch(t *testing.T) {
	golden.Run(t, "testdata/watch.golden", run, "-script", "testdata/watch.tcl", "testdata/sum.s")
}
