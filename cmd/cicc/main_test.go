package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestDefaultTranslation pins the default invocation: the H.264-like
// spec translated onto the Cell-like target and run.
func TestDefaultTranslation(t *testing.T) { golden.Run(t, "testdata/cell.golden", run) }
