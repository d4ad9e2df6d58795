package workload

import "mpsockit/internal/dataflow"

// The car-radio stream chain of the paper's section III (the NXP
// Hijdra application domain): sample -> decimating FIR -> FM demod ->
// stereo decoder -> DAC. This is its CSDF graph for the buffer-sizing
// analysis (experiment E5); ttdd.CarRadioSpec is the same chain for
// the time-triggered versus data-driven comparison (experiment E4).

// CarRadioGraph builds the CSDF model. Execution times are in
// picoseconds; the decimator consumes 4 samples per output (a
// multi-rate stage), the stereo decoder alternates cheap/expensive
// phases (cyclo-static behaviour).
func CarRadioGraph() *dataflow.Graph {
	g := dataflow.NewGraph("carradio")
	sample := g.AddActor("sample", 20_000)
	fir := g.AddActor("fir", 110_000)
	demod := g.AddActor("demod", 60_000)
	stereo := g.AddActor("stereo", 40_000, 90_000) // L-only phase, L+R phase
	dac := g.AddActor("dac", 15_000)

	g.ConnectSDF(sample, fir, 1, 4, 0) // decimate by 4
	g.ConnectSDF(fir, demod, 1, 1, 0)
	g.Connect(demod, stereo, []int{1}, []int{1, 1}, 0)
	g.Connect(stereo, dac, []int{1, 1}, []int{1}, 0)
	return g
}
