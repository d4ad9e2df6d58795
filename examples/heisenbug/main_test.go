package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestDiagnosis pins E11's table and the watchpoint diagnosis after it.
func TestDiagnosis(t *testing.T) { golden.Run(t, "testdata/output.golden", run) }
