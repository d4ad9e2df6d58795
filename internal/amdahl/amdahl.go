// Package amdahl provides the analytic scaling models behind the
// paper's section II-A positions: (1) Amdahl's law extended with
// per-core frequency boosting of the sequential phase ("the frequency
// at which each core executes shall be modifiable … Such approach
// shall help mitigate the problem of legacy single-threaded
// applications"), and (2) homogeneous versus a-priori-partitioned
// heterogeneous scaling ("introducing knowledge of any
// non-homogeneous characteristics … will inhibit scalability").
//
// These closed forms are cross-checked against the event-driven
// platform simulation in experiment E1/E2; the package itself stays
// dependency-free so cost models elsewhere (mapping, rtos) can reuse
// it.
package amdahl

import "math"

// Speedup returns classic Amdahl speedup for serial fraction f on n
// cores: 1 / (f + (1-f)/n).
func Speedup(f float64, n int) float64 {
	if n < 1 {
		panic("amdahl: need at least one core")
	}
	if f < 0 || f > 1 {
		panic("amdahl: serial fraction out of [0,1]")
	}
	return 1 / (f + (1-f)/float64(n))
}

// SpeedupBoosted extends Amdahl with DVFS boosting: during the serial
// phase one core runs at boost× nominal frequency (the other cores'
// thermal/power headroom pays for it), so the serial term shrinks by
// the boost factor:
//
//	S = 1 / (f/boost + (1-f)/n)
func SpeedupBoosted(f float64, n int, boost float64) float64 {
	if boost <= 0 {
		panic("amdahl: boost must be positive")
	}
	if n < 1 {
		panic("amdahl: need at least one core")
	}
	if f < 0 || f > 1 {
		panic("amdahl: serial fraction out of [0,1]")
	}
	return 1 / (f/boost + (1-f)/float64(n))
}

// HeteroConfig describes an a-priori functional partitioning across
// two ISA-incompatible core pools, the scaling foil of section II-A.
type HeteroConfig struct {
	// FracA is the fraction of total work statically compiled for
	// ISA-A cores (the rest runs only on ISA-B cores).
	FracA float64
	// ShareA is the fraction of the n cores that are ISA-A.
	ShareA float64
}

// HeteroSpeedup returns the speedup of a workload split at design
// time between two ISA pools on n total cores. Because neither pool
// can help the other ("any piece of software can be executed on any
// of the processor cores" fails), the finish time is the max of the
// two pools' times, and mismatch between FracA and ShareA strands
// capacity.
func HeteroSpeedup(cfg HeteroConfig, n int) float64 {
	if n < 1 {
		panic("amdahl: need at least one core")
	}
	if n == 1 {
		// A single core cannot host two ISA pools; the partitioning
		// question degenerates.
		return 1
	}
	nA := cfg.ShareA * float64(n)
	nB := float64(n) - nA
	// At least one core per pool once n >= 2 (a pool share of zero
	// degenerates to homogeneous).
	if nA < 1 {
		nA = 1
		nB = float64(n - 1)
	}
	if nB < 1 {
		nB = 1
		nA = float64(n - 1)
	}
	tA := cfg.FracA / nA
	tB := (1 - cfg.FracA) / nB
	t := math.Max(tA, tB)
	if t == 0 {
		return float64(n)
	}
	return 1 / t
}
