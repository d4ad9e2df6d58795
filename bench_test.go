// Benchmark harness: one sub-benchmark per experiment of the
// internal/paper registry (E1..E13b), which makes the paper's section
// claims checkable; docs/paper.md indexes them. The benchmarks only
// time the tables: cmd/mpsocsim's TestPaperExperimentsGolden pins
// their text, and the registry's own tests assert each claim's shape.
//
// Run with: go test -run='^$' -bench=Paper -benchmem
package mpsockit

import (
	"testing"

	"mpsockit/internal/paper"
)

func BenchmarkPaper(b *testing.B) {
	for _, e := range paper.All {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Table(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
