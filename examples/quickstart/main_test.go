package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestReport pins the flow report of the quickstart program.
func TestReport(t *testing.T) { golden.Run(t, "testdata/output.golden", run) }
