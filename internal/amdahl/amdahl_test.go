package amdahl

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSpeedupKnownValues(t *testing.T) {
	if !approx(Speedup(0, 16), 16, 1e-9) {
		t.Fatal("fully parallel code should scale linearly")
	}
	if !approx(Speedup(1, 64), 1, 1e-9) {
		t.Fatal("fully serial code should not scale")
	}
	// f=0.1, n=8: 1/(0.1 + 0.9/8) = 4.7058...
	if !approx(Speedup(0.1, 8), 4.705882, 1e-5) {
		t.Fatalf("Speedup(0.1,8) = %g", Speedup(0.1, 8))
	}
}

func TestSpeedupMonotoneInCores(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 1024; n *= 2 {
		s := Speedup(0.05, n)
		if s < prev {
			t.Fatalf("speedup decreased at n=%d", n)
		}
		prev = s
	}
	// Amdahl ceiling: 1/f.
	if prev > 20 {
		t.Fatalf("speedup %g exceeded 1/f ceiling", prev)
	}
}

func TestBoostedDominates(t *testing.T) {
	for _, f := range []float64{0.05, 0.2, 0.5} {
		for n := 2; n <= 256; n *= 4 {
			plain := Speedup(f, n)
			boosted := SpeedupBoosted(f, n, 2)
			if boosted <= plain {
				t.Fatalf("boost did not help at f=%g n=%d: %g vs %g", f, n, boosted, plain)
			}
		}
	}
}

func TestBoostGapGrowsWithSerialFraction(t *testing.T) {
	n := 64
	prevGap := 0.0
	for _, f := range []float64{0.05, 0.1, 0.2, 0.4} {
		gap := SpeedupBoosted(f, n, 4) / Speedup(f, n)
		if gap < prevGap {
			t.Fatalf("relative boost benefit fell as f rose: %g after %g", gap, prevGap)
		}
		prevGap = gap
	}
}

func TestSerialFractionForTarget(t *testing.T) {
	f := serialFractionForTarget(10, 64, 2)
	// Plugging back must reproduce the target.
	if !approx(SpeedupBoosted(f, 64, 2), 10, 1e-6) {
		t.Fatalf("round trip failed: f=%g gives %g", f, SpeedupBoosted(f, 64, 2))
	}
}

func TestHeteroMatchedPartitionIsDecent(t *testing.T) {
	// Work split matching the core split: no stranded capacity.
	s := HeteroSpeedup(HeteroConfig{FracA: 0.5, ShareA: 0.5}, 16)
	if !approx(s, 16, 1e-9) {
		t.Fatalf("matched partition speedup %g, want 16", s)
	}
}

func TestHeteroMismatchStrandsCapacity(t *testing.T) {
	// 70% of work compiled for pool A, but A has only 30% of cores.
	s := HeteroSpeedup(HeteroConfig{FracA: 0.7, ShareA: 0.3}, 32)
	homog := Speedup(0, 32)
	if s >= homog {
		t.Fatalf("mismatched heterogeneous (%g) should lose to homogeneous (%g)", s, homog)
	}
	// Efficiency visibly below 1.
	if s/32 > 0.65 {
		t.Fatalf("mismatch efficiency %g suspiciously high", s/32)
	}
}

func TestHeteroGapGrowsWithCores(t *testing.T) {
	cfg := HeteroConfig{FracA: 0.7, ShareA: 0.3}
	prevGap := 0.0
	for n := 4; n <= 256; n *= 2 {
		gap := Speedup(0, n) - HeteroSpeedup(cfg, n)
		if gap < prevGap {
			t.Fatalf("homogeneous advantage shrank at n=%d", n)
		}
		prevGap = gap
	}
	if prevGap <= 0 {
		t.Fatal("no homogeneous advantage at any scale")
	}
}

func TestCrossoverBoost(t *testing.T) {
	// With f=0.2 the boost needed to match doubling 16->32 cores is
	// modest and finite.
	b := crossoverBoost(0.2, 16)
	if math.IsInf(b, 1) || b <= 1 {
		t.Fatalf("crossover boost %g not plausible", b)
	}
	// Verify the fixpoint: boosted n cores == plain 2n cores.
	if !approx(SpeedupBoosted(0.2, 16, b), Speedup(0.2, 32), 1e-6) {
		t.Fatal("crossover boost does not reproduce the 2n speedup")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { Speedup(-0.1, 4) },
		func() { Speedup(1.1, 4) },
		func() { Speedup(0.5, 0) },
		func() { SpeedupBoosted(0.5, 4, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: boosted speedup is continuous in f and bounded by n; the
// homogeneous model never loses to the heterogeneous model with the
// same resources for balanced work.
func TestModelBoundsProperty(t *testing.T) {
	f := func(fRaw, shareRaw uint8, nRaw uint8) bool {
		fr := float64(fRaw) / 255
		n := int(nRaw)%128 + 1
		s := SpeedupBoosted(fr, n, 2)
		// The boosted serial phase can push speedup past n for small
		// n, but never past max(n, boost).
		bound := math.Max(float64(n), 2) + 1e-9
		if s <= 0 || s > bound {
			return false
		}
		share := 0.1 + 0.8*float64(shareRaw)/255
		h := HeteroSpeedup(HeteroConfig{FracA: 0.5, ShareA: share}, n)
		return h <= Speedup(0, n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// serialFractionForTarget returns the largest serial fraction that
// still achieves the target speedup on n cores with the given boost
// (solving SpeedupBoosted for f). It returns a negative value when
// the target is unreachable even at f=0.
func serialFractionForTarget(target float64, n int, boost float64) float64 {
	// 1/target = f/boost + (1-f)/n  =>  f (1/boost - 1/n) = 1/target - 1/n
	den := 1/boost - 1/float64(n)
	if den == 0 {
		return math.NaN()
	}
	return (1/target - 1/float64(n)) / den
}

// crossoverBoost returns the boost factor at which a boosted serial
// phase on n cores matches the speedup of 2n cores without boost —
// quantifying the paper's argument that raising sequential
// performance can beat adding cores for Amdahl-limited codes.
func crossoverBoost(f float64, n int) float64 {
	target := Speedup(f, 2*n)
	// Solve 1/target = f/b + (1-f)/n for b.
	rhs := 1/target - (1-f)/float64(n)
	if rhs <= 0 {
		return math.Inf(1)
	}
	return f / rhs
}
