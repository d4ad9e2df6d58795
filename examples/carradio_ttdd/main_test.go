package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestTables pins E4's and E5's tables as the example prints them.
func TestTables(t *testing.T) { golden.Run(t, "testdata/output.golden", run) }
