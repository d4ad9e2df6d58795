// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the toolkit.
//
// Simulations and heuristics (e.g. simulated-annealing mapping,
// execution-time jitter injection) must be reproducible run-to-run so
// that experiments and tests are stable. The standard library's
// math/rand global source is shared mutable state; this package gives
// every component its own explicitly seeded stream based on
// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
// generators").
package xrand

// Rand is a deterministic SplitMix64 generator. The zero value is a
// valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if
// n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniformly distributed int64 in [lo, hi]. It panics
// if hi < lo.
func (r *Rand) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
