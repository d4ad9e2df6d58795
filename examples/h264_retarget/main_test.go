package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestRetarget pins the per-target reports and the stream comparison.
func TestRetarget(t *testing.T) { golden.Run(t, "testdata/output.golden", run) }
