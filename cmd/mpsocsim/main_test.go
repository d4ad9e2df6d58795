package main

import (
	"testing"

	"mpsockit/internal/golden"
)

// TestPaperExperimentsGolden pins every table of the paper registry:
// mpsocsim with no arguments must print testdata/experiments.golden
// byte for byte. Regenerate deliberately with
//
//	go test ./cmd/mpsocsim/ -run TestPaperExperimentsGolden -update-golden
func TestPaperExperimentsGolden(t *testing.T) {
	golden.Run(t, "../../testdata/experiments.golden", run)
}
