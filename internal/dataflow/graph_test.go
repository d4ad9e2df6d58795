package dataflow

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestRepetitionVectorSDFChain(t *testing.T) {
	g := Chain("c", 10, 20, 30)
	rv, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rv {
		if r != 1 {
			t.Fatalf("rv[%d] = %d, want 1 for unit-rate chain", i, r)
		}
	}
}

func TestRepetitionVectorMultirate(t *testing.T) {
	// a --2:3--> b : 3*q_a = ... balance: q_a*2 = q_b*3 -> q = [3,2].
	g := NewGraph("mr")
	a := g.AddActor("a", 5)
	b := g.AddActor("b", 7)
	g.ConnectSDF(a, b, 2, 3, 0)
	rv, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if rv[0] != 3 || rv[1] != 2 {
		t.Fatalf("rv = %v, want [3 2]", rv)
	}
}

func TestRepetitionVectorCSDF(t *testing.T) {
	// CSDF actor with phases producing [1,2] (total 3 per cycle)
	// feeding a single-phase consumer of 1: q_a*3 = q_b*1 -> [1,3].
	g := NewGraph("csdf")
	a := g.AddActor("a", 4, 6)
	b := g.AddActor("b", 5)
	g.Connect(a, b, []int{1, 2}, []int{1}, 0)
	rv, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if rv[0] != 1 || rv[1] != 3 {
		t.Fatalf("rv = %v, want [1 3]", rv)
	}
}

func TestInconsistentGraphRejected(t *testing.T) {
	// Triangle with contradictory rates.
	g := NewGraph("bad")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 1)
	g.ConnectSDF(a, b, 1, 1, 0)
	g.ConnectSDF(b, c, 1, 1, 0)
	g.ConnectSDF(a, c, 2, 1, 0) // forces q_c = 2*q_a but chain gives q_c = q_a
	if _, err := g.RepetitionVector(); err == nil {
		t.Fatal("inconsistent graph accepted")
	}
}

func TestDisconnectedGraphRejected(t *testing.T) {
	g := NewGraph("disc")
	g.AddActor("a", 1)
	g.AddActor("b", 1)
	if _, err := g.RepetitionVector(); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestPhaseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph("pm")
	a := g.AddActor("a", 1, 2) // two phases
	b := g.AddActor("b", 1)
	g.Connect(a, b, []int{1}, []int{1}, 0) // prod has 1 entry, needs 2
}

func TestSelfTimedChainExecution(t *testing.T) {
	g := Chain("p", 10, 20, 15)
	r, err := g.Run(RunOptions{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("run failed: %+v", r)
	}
	if len(r.SinkTimes) != 10 {
		t.Fatalf("sink fired %d times, want 10", len(r.SinkTimes))
	}
	// Pipeline steady state is limited by the slowest actor (20).
	p := r.Period()
	if p < 19 || p > 21 {
		t.Fatalf("steady-state period %g, want ~20", p)
	}
}

func TestBackPressureThrottlesSource(t *testing.T) {
	// Fast producer into slow consumer over a 1-token buffer: the
	// producer must slow to the consumer's rate; tokens never exceed
	// the capacity.
	g := NewGraph("bp")
	fast := g.AddActor("fast", 1)
	slow := g.AddActor("slow", 100)
	g.ConnectSDF(fast, slow, 1, 1, 0)
	r, err := g.Run(RunOptions{Caps: []int{1}, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("deadlock with cap 1 on plain chain")
	}
	p := r.Period()
	if p < 99 || p > 101 {
		t.Fatalf("period %g, want consumer-limited ~100", p)
	}
	// Producer cannot have run ahead more than capacity+in-flight.
	if r.Firings[0] > r.Firings[1]+2 {
		t.Fatalf("producer ran ahead: %v", r.Firings)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two-actor cycle with no initial tokens cannot fire.
	g := NewGraph("dl")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.ConnectSDF(a, b, 1, 1, 0)
	g.ConnectSDF(b, a, 1, 1, 0)
	r, err := g.Run(RunOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatal("tokenless cycle did not deadlock")
	}
}

func TestCycleWithInitialTokensRuns(t *testing.T) {
	g := NewGraph("cyc")
	a := g.AddActor("a", 10)
	b := g.AddActor("b", 10)
	g.ConnectSDF(a, b, 1, 1, 0)
	g.ConnectSDF(b, a, 1, 1, 1) // one credit token
	r, err := g.Run(RunOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || len(r.SinkTimes) != 5 {
		t.Fatalf("cycle run failed: %+v", r)
	}
	// One token in a 2-actor cycle serializes: period = 10+10.
	if p := r.Period(); p < 19 || p > 21 {
		t.Fatalf("period %g, want ~20", p)
	}
}

func TestPeriodicSourceWaitFree(t *testing.T) {
	g := Chain("wf", 10, 30, 10)
	// Source period 40 > bottleneck 30: feasible; generous buffers.
	r, err := g.Run(RunOptions{
		Caps: []int{4, 4}, Iterations: 20, SourcePeriod: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SourceBlocked != 0 {
		t.Fatalf("source blocked %d times, want wait-free", r.SourceBlocked)
	}
	// Sink period tracks the source period in steady state.
	if p := r.Period(); p < 39 || p > 41 {
		t.Fatalf("sink period %g, want ~40", p)
	}
}

func TestPeriodicSourceTooFastBlocks(t *testing.T) {
	g := Chain("of", 10, 50, 10)
	// Source period 20 < bottleneck 50: back-pressure must block the
	// source (not corrupt data — that is the section III point).
	r, err := g.Run(RunOptions{
		Caps: []int{2, 2}, Iterations: 10, SourcePeriod: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SourceBlocked == 0 {
		t.Fatal("overdriven source reported wait-free")
	}
}

func TestMinBufferSizesChain(t *testing.T) {
	g := Chain("mb", 10, 30, 10)
	caps, err := g.MinBufferSizes(40, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		if c < 1 {
			t.Fatalf("edge %d capacity %d", i, c)
		}
	}
	// Minimality: unit-rate chain at a feasible period needs only 1-2
	// tokens per edge.
	if TotalTokens(caps) > 6 {
		t.Fatalf("caps %v not minimal", caps)
	}
	// Safety: verify wait-freedom at the computed capacities over a
	// longer horizon than the oracle used.
	r, err := g.Run(RunOptions{Caps: caps, Iterations: 64, SourcePeriod: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r.SourceBlocked != 0 || r.Deadlocked {
		t.Fatalf("computed caps unsafe: %+v", r)
	}
}

func TestMinBufferSizesTightPeriodNeedsMoreBuffer(t *testing.T) {
	// CSDF with bursty phases: tighter periods need larger buffers.
	g := NewGraph("burst")
	srcA := g.AddActor("src", 5)
	burst := g.AddActor("burst", 10, 90) // cheap phase then expensive phase
	sink := g.AddActor("sink", 5)
	g.Connect(srcA, burst, []int{1}, []int{1, 1}, 0)
	g.Connect(burst, sink, []int{1, 1}, []int{1}, 0)
	loose, err := g.MinBufferSizes(120, 16)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := g.MinBufferSizes(55, 16)
	if err != nil {
		t.Fatal(err)
	}
	if TotalTokens(tight) < TotalTokens(loose) {
		t.Fatalf("tight period buffers %v smaller than loose %v", tight, loose)
	}
}

func TestMinBufferInfeasiblePeriod(t *testing.T) {
	g := Chain("inf", 10, 100, 10)
	// Period 20 is below the bottleneck's 100: no buffer size helps.
	if _, err := g.MinBufferSizes(20, 12); err == nil {
		t.Fatal("infeasible period accepted")
	}
}

func TestSelfTimedPeriodMatchesBottleneck(t *testing.T) {
	g := Chain("st", 7, 42, 13)
	p, err := g.SelfTimedPeriod(24)
	if err != nil {
		t.Fatal(err)
	}
	if p < 41 || p > 43 {
		t.Fatalf("self-timed period %g, want ~42", p)
	}
}

// Property: for random unit-rate chains, MinBufferSizes always returns
// capacities that keep the source wait-free at 1.5x the bottleneck
// period (feasibility margin), and every capacity is >= 1.
func TestBufferSizingSafetyProperty(t *testing.T) {
	f := func(times []uint8) bool {
		if len(times) < 2 {
			return true
		}
		if len(times) > 6 {
			times = times[:6]
		}
		execs := make([]int64, len(times))
		var maxT int64 = 1
		for i, v := range times {
			execs[i] = int64(v%50) + 1
			if execs[i] > maxT {
				maxT = execs[i]
			}
		}
		g := Chain("pp", execs...)
		period := maxT + maxT/2 + 1
		caps, err := g.MinBufferSizes(period, 12)
		if err != nil {
			return false
		}
		for _, c := range caps {
			if c < 1 {
				return false
			}
		}
		r, err := g.Run(RunOptions{Caps: caps, Iterations: 40, SourcePeriod: period})
		if err != nil {
			return false
		}
		return r.SourceBlocked == 0 && !r.Deadlocked && !r.TimedOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Chain builds a linear SDF pipeline with unit rates: a common shape
// for the paper's car-radio stream processing. execTimes are in
// picoseconds.
func Chain(name string, execTimes ...int64) *Graph {
	g := NewGraph(name)
	var prev *Actor
	for i, t := range execTimes {
		a := g.AddActor(fmt.Sprintf("%s%d", name, i), t)
		if prev != nil {
			g.ConnectSDF(prev, a, 1, 1, 0)
		}
		prev = a
	}
	return g
}
