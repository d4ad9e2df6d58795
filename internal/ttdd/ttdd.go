// Package ttdd implements the section III comparison of the paper:
// time-triggered versus data-driven execution of a real-time stream
// pipeline (the NXP car-radio / mobile-phone setting).
//
// In the time-triggered executor, a design-time periodic schedule
// derived from worst-case execution-time (WCET) estimates triggers
// every stage at fixed instants. When an actual execution time
// exceeds its estimate, data is corrupted exactly as the paper
// describes: "data would be overwritten in a buffer or the same data
// would be read again" — observable at the sink as sequence-number
// gaps and duplicates.
//
// In the data-driven executor, only the source and sink are
// timer-triggered; every other stage starts on data arrival, and
// bounded buffers exert back-pressure. Overruns then shift timing
// (aperiodic execution) but cannot corrupt the stream, which is the
// section's core claim: "a data-driven approach puts less constraints
// on the application software than a time-triggered approach".
package ttdd

import (
	"fmt"

	"mpsockit/internal/sim"
	"mpsockit/internal/xrand"
)

// Token is one unit of stream data carrying provenance for corruption
// detection.
type Token struct {
	Seq      int
	Produced sim.Time
}

// Stage describes one pipeline stage's timing behaviour.
type Stage struct {
	Name string
	// WCETEst is the design-time estimate the time-triggered schedule
	// is built from. The paper stresses such estimates can be
	// "unreliable"; experiments sweep actual behaviour past them.
	WCETEst sim.Time
	// Mean is the actual mean execution time.
	Mean sim.Time
	// Jitter is the half-width of the uniform actual-time
	// distribution, as a fraction of Mean (0.3 = ±30%).
	Jitter float64
}

// sample returns the actual execution time of one firing.
func (s *Stage) sample(r *xrand.Rand) sim.Time {
	if s.Jitter <= 0 {
		return s.Mean
	}
	u := 2*r.Float64() - 1
	d := sim.Time(float64(s.Mean) * (1 + s.Jitter*u))
	if d < sim.Time(1) {
		d = 1
	}
	return d
}

// Spec describes one pipeline experiment, run identically through
// both executors.
type Spec struct {
	Stages []Stage
	// Period is the source and sink trigger period.
	Period sim.Time
	// BufferCap is the per-edge buffer capacity in tokens.
	BufferCap int
	// Iterations is the number of source triggers.
	Iterations int
	// Seed drives the shared jitter streams; the two executors see
	// identical actual execution times per (stage, firing).
	Seed uint64
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if len(s.Stages) < 2 {
		return fmt.Errorf("ttdd: need at least source and sink stages")
	}
	if s.Period <= 0 || s.Iterations <= 0 {
		return fmt.Errorf("ttdd: period and iterations must be positive")
	}
	if s.BufferCap <= 0 {
		return fmt.Errorf("ttdd: buffer capacity must be positive")
	}
	return nil
}

// Metrics aggregates the observable outcome of one run.
type Metrics struct {
	Executor string
	Produced int
	Consumed int
	// Gaps counts sink-observed missing sequence numbers (data lost to
	// overwrites) and Duplicates re-read stale data; Corruptions is
	// their sum. Data-driven execution keeps these at zero by
	// construction.
	Gaps        int
	Duplicates  int
	Corruptions int
	// Overruns counts firings whose actual time exceeded the WCET
	// estimate (the hazard trigger, identical across executors).
	Overruns int
	// SinkMisses counts sink triggers that found no fresh token. The
	// paper deems source/sink robust to this, unlike in-stream
	// corruption.
	SinkMisses int
	// SourceBlocked counts source triggers rejected by back-pressure
	// (data-driven) — with adequately sized buffers this stays zero.
	SourceBlocked int
	// Latency of delivered tokens, end to end.
	MaxLatency sim.Time
	SumLatency sim.Time
}

// AvgLatency returns the mean end-to-end latency of consumed tokens.
func (m *Metrics) AvgLatency() sim.Time {
	if m.Consumed == 0 {
		return 0
	}
	return m.SumLatency / sim.Time(m.Consumed)
}

// CorruptionRate returns corruptions per source trigger.
func (m *Metrics) CorruptionRate() float64 {
	if m.Produced == 0 {
		return 0
	}
	return float64(m.Corruptions) / float64(m.Produced)
}

// sinkCheck folds one delivered token into the metrics. droppedAtSource
// reports sequence numbers the source itself dropped before they ever
// entered the stream; the paper treats source/sink-side loss as
// tolerable, so such gaps are not counted as in-stream corruption.
func (m *Metrics) sinkCheck(tok Token, now sim.Time, lastSeq *int, droppedAtSource func(int) bool) {
	m.Consumed++
	lat := now - tok.Produced
	if lat > m.MaxLatency {
		m.MaxLatency = lat
	}
	m.SumLatency += lat
	switch {
	case tok.Seq == *lastSeq+1:
		// in order
	case tok.Seq <= *lastSeq:
		m.Duplicates++
		m.Corruptions++
	default:
		for s := *lastSeq + 1; s < tok.Seq; s++ {
			if droppedAtSource != nil && droppedAtSource(s) {
				continue
			}
			m.Gaps++
			m.Corruptions++
		}
	}
	if tok.Seq > *lastSeq {
		*lastSeq = tok.Seq
	}
}

// jitterStreams builds one deterministic RNG per stage so both
// executors sample identical actual execution times.
func (s *Spec) jitterStreams() []*xrand.Rand {
	rs := make([]*xrand.Rand, len(s.Stages))
	for i := range rs {
		rs[i] = xrand.New(s.Seed*1_000_003 + uint64(i)*97)
	}
	return rs
}

// slot is a Kopetz-style state-message buffer: the writer overwrites
// the single most-recent value, the reader reads it without consuming.
// An overwrite of a never-read value loses data (sequence gap); a
// re-read of an un-refreshed value duplicates data — the exact
// corruption mechanisms the paper attributes to time-triggered
// communication under WCET violations.
type slot struct {
	tok        Token
	valid      bool
	Overwrites int
}

func (s *slot) write(t Token) {
	if s.valid {
		s.Overwrites++
	}
	s.tok = t
	s.valid = true
}

func (s *slot) read() (Token, bool) {
	return s.tok, s.valid
}

// RunTimeTriggered executes the pipeline under a static periodic
// schedule: stage i is triggered at offset_i + k*Period, with
// offset_i the prefix sum of WCET estimates (the design-time schedule
// of section III). Stages communicate through state-message slots;
// nobody ever waits, so an execution time beyond its estimate
// silently corrupts the stream.
func RunTimeTriggered(spec Spec) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	m := &Metrics{Executor: "time-triggered"}
	rngs := spec.jitterStreams()
	n := len(spec.Stages)

	slots := make([]*slot, n-1)
	for i := range slots {
		slots[i] = &slot{}
	}
	offsets := make([]sim.Time, n)
	for i := 1; i < n; i++ {
		offsets[i] = offsets[i-1] + spec.Stages[i-1].WCETEst
	}
	lastSeq := -1

	for it := 0; it < spec.Iterations; it++ {
		it := it
		// Source trigger.
		k.At(offsets[0]+sim.Time(it)*spec.Period, func() {
			st := &spec.Stages[0]
			d := st.sample(rngs[0])
			if d > st.WCETEst {
				m.Overruns++
			}
			tok := Token{Seq: it, Produced: k.Now()}
			m.Produced++
			k.Schedule(d, func() { slots[0].write(tok) })
		})
		// Middle stages.
		for si := 1; si < n-1; si++ {
			si := si
			k.At(offsets[si]+sim.Time(it)*spec.Period, func() {
				st := &spec.Stages[si]
				tok, ok := slots[si-1].read()
				if !ok {
					return // nothing ever arrived; skip firing
				}
				d := st.sample(rngs[si])
				if d > st.WCETEst {
					m.Overruns++
				}
				k.Schedule(d, func() { slots[si].write(tok) })
			})
		}
		// Sink trigger.
		k.At(offsets[n-1]+sim.Time(it)*spec.Period, func() {
			st := &spec.Stages[n-1]
			d := st.sample(rngs[n-1])
			if d > st.WCETEst {
				m.Overruns++
			}
			tok, ok := slots[n-2].read()
			if !ok {
				m.SinkMisses++
				return
			}
			m.sinkCheck(tok, k.Now(), &lastSeq, nil)
		})
	}
	k.Run()
	return m, nil
}

// RunDataDriven executes the pipeline with timer-triggered source and
// sink and arrival-triggered middle stages over blocking bounded
// buffers (back-pressure) — the Hijdra execution model of section III.
func RunDataDriven(spec Spec) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	m := &Metrics{Executor: "data-driven"}
	rngs := spec.jitterStreams()
	n := len(spec.Stages)

	queues := make([]*sim.Queue, n-1)
	for i := range queues {
		queues[i] = k.NewQueue(fmt.Sprintf("dd%d", i), spec.BufferCap)
	}
	// Same startup offset for the sink as in the TT schedule, so
	// latency and miss numbers are comparable.
	var sinkOffset sim.Time
	for i := 0; i < n-1; i++ {
		sinkOffset += spec.Stages[i].WCETEst
	}
	lastSeq := -1
	dropped := map[int]bool{}

	// Source: strictly periodic, non-blocking (a periodic sensor
	// cannot wait); a full buffer drops the new sample and counts.
	for it := 0; it < spec.Iterations; it++ {
		it := it
		k.At(sim.Time(it)*spec.Period, func() {
			st := &spec.Stages[0]
			d := st.sample(rngs[0])
			if d > st.WCETEst {
				m.Overruns++
			}
			tok := Token{Seq: it, Produced: k.Now()}
			m.Produced++
			k.Schedule(d, func() {
				if !queues[0].TryPut(tok) {
					m.SourceBlocked++
					dropped[it] = true
				}
			})
		})
	}
	// Middle stages: data-driven processes.
	for si := 1; si < n-1; si++ {
		si := si
		k.Spawn(spec.Stages[si].Name, func(p *sim.Proc) {
			for consumed := 0; consumed < spec.Iterations; consumed++ {
				v := queues[si-1].Get(p)
				st := &spec.Stages[si]
				d := st.sample(rngs[si])
				if d > st.WCETEst {
					m.Overruns++
				}
				p.Delay(d)
				queues[si].Put(p, v)
			}
		})
	}
	// Sink: strictly periodic.
	for it := 0; it < spec.Iterations; it++ {
		it := it
		k.At(sinkOffset+sim.Time(it)*spec.Period, func() {
			st := &spec.Stages[n-1]
			d := st.sample(rngs[n-1])
			if d > st.WCETEst {
				m.Overruns++
			}
			v, ok := queues[n-2].TryGet()
			if !ok {
				m.SinkMisses++
				return
			}
			m.sinkCheck(v.(Token), k.Now(), &lastSeq, func(s int) bool { return dropped[s] })
		})
	}
	k.Run()
	return m, nil
}

// CarRadioSpec returns the package's reference workload: a 5-stage
// car-radio-like chain (sample, demod, filter, stereo, DAC) with the
// given actual-over-estimate jitter. wcetMargin scales estimates
// above the mean (1.1 = 10% engineering margin).
func CarRadioSpec(jitter, wcetMargin float64, iterations int, seed uint64) Spec {
	mk := func(name string, mean sim.Time) Stage {
		return Stage{
			Name: name, Mean: mean,
			WCETEst: sim.Time(float64(mean) * wcetMargin),
			Jitter:  jitter,
		}
	}
	return Spec{
		Stages: []Stage{
			mk("sample", 20*sim.Microsecond),
			mk("demod", 60*sim.Microsecond),
			mk("filter", 80*sim.Microsecond),
			mk("stereo", 50*sim.Microsecond),
			mk("dac", 20*sim.Microsecond),
		},
		Period:     100 * sim.Microsecond,
		BufferCap:  2,
		Iterations: iterations,
		Seed:       seed,
	}
}
