package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestPipeline pins the functional encoder line, E6's table and the
// detail report.
func TestPipeline(t *testing.T) { golden.Run(t, "testdata/output.golden", run) }
