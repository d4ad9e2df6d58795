package mpsockit

import (
	"testing"

	"mpsockit/internal/debug"
	"mpsockit/internal/osip"
)

// Determinism regression for the pooled, closure-free kernel: a mixed
// VP + OSIP scenario must replay bit-identically — same dispatched
// event counts, same architectural outcomes — both in precise
// (quantum=1) mode and under temporal decoupling. This is the
// structural property every debugging experiment (E9, E11, E12) rests
// on; event pooling and the decoupled fast path must not perturb it.
func TestDeterministicReplay(t *testing.T) {
	for _, q := range []int{1, 16} {
		// VP side: the E11 shared-counter race, the most
		// interleaving-sensitive workload in the repo.
		r1, err := debug.RunRaceQ(2, 200, debug.RaceProgram(200), nil, q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := debug.RunRaceQ(2, 200, debug.RaceProgram(200), nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if *r1 != *r2 {
			t.Fatalf("quantum %d: race replay diverged: %+v vs %+v", q, r1, r2)
		}
		if r1.Final+r1.LostUpdates != r1.Expected {
			t.Fatalf("quantum %d: inconsistent race accounting: %+v", q, r1)
		}
		if r1.Events == 0 {
			t.Fatalf("quantum %d: no kernel events recorded", q)
		}
	}

	// OSIP side: the dispatcher model exercises Resource contention and
	// the closure-free wake path across 8 worker processes.
	cfg := osip.DefaultConfig(osip.RISCSoftware, 8, 500, 2000)
	o1, err := osip.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := osip.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *o1 != *o2 {
		t.Fatalf("OSIP replay diverged: %+v vs %+v", o1, o2)
	}
	if o1.Events == 0 || o1.Dispatches != 500 {
		t.Fatalf("OSIP run implausible: %+v", o1)
	}
}
