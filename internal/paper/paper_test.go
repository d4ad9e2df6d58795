package paper

import (
	"bytes"
	"testing"
)

// The shape tests assert each claim on the builders' values, so a
// regenerated testdata/experiments.golden cannot silently invert what
// the paper says.

// TestE1Shape: homogeneous speedup is linear in the core count, and
// the gap to the mismatched heterogeneous platform grows with cores.
func TestE1Shape(t *testing.T) {
	prevGap := 0.0
	for _, r := range E1() {
		if gap := r.Homog - r.Hetero; r.Homog != float64(r.Cores) || gap <= prevGap {
			t.Errorf("%d cores: homogeneous speedup %.2f, gap %.2f after %.2f", r.Cores, r.Homog, gap, prevGap)
		} else {
			prevGap = gap
		}
	}
}

// TestE3Shape: boosting removes every deadline miss the plain
// scheduler makes.
func TestE3Shape(t *testing.T) {
	missed := false
	for _, r := range E3() {
		if r.MissBoost != 0 {
			t.Errorf("%d jobs: boosted miss rate %.2f, want 0", r.Jobs, r.MissBoost)
		}
		missed = missed || r.MissPlain > 0
	}
	if !missed {
		t.Error("the plain scheduler never misses, so boosting shows nothing")
	}
}

// TestE4Shape: data-driven runs never corrupt the stream; the
// time-triggered ones do once execution times jitter.
func TestE4Shape(t *testing.T) {
	rows, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DD.Corruptions != 0 || (r.Jitter > 0) != (r.TT.Corruptions > 0) {
			t.Errorf("jitter %.2f: %d data-driven and %d time-triggered corruptions", r.Jitter, r.DD.Corruptions, r.TT.Corruptions)
		}
	}
}

// TestE7Shape: the OSIP dispatcher keeps the PEs at least as busy as
// the RISC software scheduler at every granularity.
func TestE7Shape(t *testing.T) {
	rows, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OSIP < r.RISC {
			t.Errorf("granularity %d: OSIP utilization %.3f below RISC-SW %.3f", r.Granularity, r.OSIP, r.RISC)
		}
	}
}

// TestE9Shape: both targets emit the same stream, and it is the
// sequential encoder's.
func TestE9Shape(t *testing.T) {
	r, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical || !r.MatchesSequential || len(r.Sequential) == 0 {
		t.Fatalf("identical across targets %v, equal to the %d-int sequential stream %v",
			r.Identical, len(r.Sequential), r.MatchesSequential)
	}
}

// TestE10Shape: each designer action saves at least ten manual line
// edits.
func TestE10Shape(t *testing.T) {
	if r, err := E10(); err != nil || r.Factor < 10 {
		t.Fatalf("%.1f lines per action, want >= 10 (err %v)", r.Factor, err)
	}
}

// TestE11Shape: the race loses updates, the intrusive probe hides it,
// the VP replay reproduces it exactly, and the semaphore fixes it.
func TestE11Shape(t *testing.T) {
	r, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.LostUpdates == 0 || r.Probed.LostUpdates != 0 || *r.Replay != *r.Baseline || r.Fixed.LostUpdates != 0 {
		t.Fatalf("lost updates: %d undisturbed, %d probed, %d replayed (%+v vs %+v), %d fixed",
			r.Baseline.LostUpdates, r.Probed.LostUpdates, r.Replay.LostUpdates, *r.Replay, *r.Baseline, r.Fixed.LostUpdates)
	}
	// The probe parks its core for a whole stall in one kernel event,
	// not one event per stalled cycle.
	if r.Probed.Events > 2*r.Baseline.Events {
		t.Fatalf("probed run dispatched %d events, undisturbed %d", r.Probed.Events, r.Baseline.Events)
	}
}

// TestE13Shape: the task-level model needs at least 100 times fewer
// work units than the ISS for the same virtual time.
func TestE13Shape(t *testing.T) {
	if r, err := E13(); err != nil || r.ISSInstr < 100*r.MVPEvents {
		t.Fatalf("%d instructions vs %d events: less than 100x (err %v)", r.ISSInstr, r.MVPEvents, err)
	}
}

// TestWriteSelects: Write prints the named experiments in the order
// given, and refuses an unknown ID before printing anything.
func TestWriteSelects(t *testing.T) {
	var b bytes.Buffer
	e1, _ := tableE1()
	e2, _ := tableE2()
	if err := Write(&b, "E2,E1"); err != nil || b.String() != e2+e1 {
		t.Fatalf("Write(E2,E1) = %v, printed\n%s", err, b.String())
	}
	b.Reset()
	if err := Write(&b, "E1,E99"); err == nil || b.Len() != 0 {
		t.Fatalf("Write(E1,E99) = %v after printing %d bytes, want an error and nothing printed", err, b.Len())
	}
}
