package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestTaskChain pins the recoded source of a stream kernel whose three
// loops are outlined into two tasks each before the task-private
// vector is split.
func TestTaskChain(t *testing.T) {
	golden.Run(t, "testdata/stream.golden", run,
		"-op", "tasks main 0 2", "-op", "tasks main 0 2", "-op", "tasks main 0 2",
		"-op", "vector mid", "testdata/stream.c")
}
