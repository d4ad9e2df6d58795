package ttdd

import (
	"testing"

	"mpsockit/internal/sim"
)

func TestNoJitterBothClean(t *testing.T) {
	// With zero jitter and honest WCETs, both executors deliver every
	// token uncorrupted.
	spec := CarRadioSpec(0, 1.1, 200, 1)
	tt, err := RunTimeTriggered(spec)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := RunDataDriven(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Metrics{tt, dd} {
		if m.Corruptions != 0 {
			t.Fatalf("%s corrupted %d tokens with no jitter", m.Executor, m.Corruptions)
		}
		if m.Overruns != 0 {
			t.Fatalf("%s overran %d times with no jitter", m.Executor, m.Overruns)
		}
		if m.Consumed < 190 {
			t.Fatalf("%s consumed only %d/200", m.Executor, m.Consumed)
		}
	}
}

func TestOverrunsCorruptTimeTriggeredOnly(t *testing.T) {
	// 40% jitter against a 10% WCET margin: overruns are frequent.
	spec := CarRadioSpec(0.4, 1.1, 500, 7)
	tt, err := RunTimeTriggered(spec)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := RunDataDriven(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Overruns == 0 {
		t.Fatal("jitter produced no overruns; sweep is meaningless")
	}
	if tt.Corruptions == 0 {
		t.Fatal("time-triggered executor survived overruns uncorrupted — model broken")
	}
	if dd.Corruptions != 0 {
		t.Fatalf("data-driven executor corrupted %d tokens (gaps %d dups %d)",
			dd.Corruptions, dd.Gaps, dd.Duplicates)
	}
	// The data-driven side must still deliver the stream.
	if dd.Consumed < 400 {
		t.Fatalf("data-driven consumed only %d/500", dd.Consumed)
	}
}

func TestCorruptionGrowsWithJitter(t *testing.T) {
	prev := -1
	for _, j := range []float64{0.15, 0.3, 0.6} {
		spec := CarRadioSpec(j, 1.1, 400, 11)
		tt, err := RunTimeTriggered(spec)
		if err != nil {
			t.Fatal(err)
		}
		if tt.Corruptions < prev {
			// Allow small non-monotonic noise but not gross inversion.
			if prev-tt.Corruptions > prev/4 {
				t.Fatalf("corruption fell sharply as jitter rose: %d -> %d", prev, tt.Corruptions)
			}
		}
		prev = tt.Corruptions
	}
	if prev == 0 {
		t.Fatal("no corruption at 60% jitter")
	}
}

func TestDataDrivenAperiodicYetInOrder(t *testing.T) {
	// Heavy jitter makes middle stages aperiodic; the stream must stay
	// strictly in order with zero loss inside the graph.
	spec := CarRadioSpec(0.5, 1.05, 300, 3)
	spec.BufferCap = 4
	dd, err := RunDataDriven(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Corruptions != 0 {
		t.Fatalf("in-stream corruption in data-driven run: %+v", dd)
	}
	if dd.MaxLatency <= 0 {
		t.Fatal("latency not measured")
	}
	// Latency varies (aperiodic) but is bounded by buffering.
	bound := spec.Period * sim.Time(len(spec.Stages)*spec.BufferCap+2)
	if dd.MaxLatency > bound {
		t.Fatalf("latency %v beyond buffering bound %v", dd.MaxLatency, bound)
	}
}

func TestTightWCETMarginInsufficient(t *testing.T) {
	// Same jitter, wider margin: TT corruption should drop — the cost
	// is a longer schedule (bigger offsets), which the paper calls the
	// "more constraints on the application" trade-off.
	narrow := CarRadioSpec(0.3, 1.05, 400, 13)
	wide := CarRadioSpec(0.3, 1.5, 400, 13)
	mn, err := RunTimeTriggered(narrow)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := RunTimeTriggered(wide)
	if err != nil {
		t.Fatal(err)
	}
	if mw.Corruptions > mn.Corruptions {
		t.Fatalf("wider WCET margin increased corruption: %d vs %d",
			mw.Corruptions, mn.Corruptions)
	}
	if mw.Overruns >= mn.Overruns {
		t.Fatalf("wider margin did not reduce overruns: %d vs %d", mw.Overruns, mn.Overruns)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec := CarRadioSpec(0.35, 1.1, 200, 21)
	a, err := RunTimeTriggered(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTimeTriggered(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Corruptions != b.Corruptions || a.Consumed != b.Consumed ||
		a.MaxLatency != b.MaxLatency {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Stages: make([]Stage, 1), Period: 1, BufferCap: 1, Iterations: 1},
		{Stages: make([]Stage, 3), Period: 0, BufferCap: 1, Iterations: 1},
		{Stages: make([]Stage, 3), Period: 1, BufferCap: 0, Iterations: 1},
	}
	for i, s := range bad {
		if _, err := RunTimeTriggered(s); err == nil {
			t.Errorf("spec %d accepted by TT", i)
		}
		if _, err := RunDataDriven(s); err == nil {
			t.Errorf("spec %d accepted by DD", i)
		}
	}
}
