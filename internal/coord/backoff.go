package coord

import (
	"time"

	"mpsockit/internal/xrand"
)

// Backoff yields capped exponential retry delays with deterministic
// jitter: attempt k waits between half and all of min(Base·2ᵏ, Max).
// Jitter desynchronizes a fleet of workers hammering a coordinator
// that just came back (the thundering-herd problem), and drawing it
// from a seeded xrand stream instead of the global clock keeps every
// worker's delay sequence replayable — the retry schedule a chaos test
// observed is the schedule any rerun observes.
type Backoff struct {
	// Base is the nominal first delay.
	Base time.Duration
	// Max caps the un-jittered delay growth.
	Max time.Duration
	rng *xrand.Rand
	// attempt counts Next calls since the last Reset.
	attempt int
}

// NewBackoff builds a backoff with the given bounds and jitter seed.
// Workers derive the seed from their identity, so two workers never
// share a delay sequence but each worker's own sequence replays.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{Base: base, Max: max, rng: xrand.New(seed)}
}

// Next returns the delay before the next retry and advances the
// attempt counter.
func (b *Backoff) Next() time.Duration {
	d := b.Base
	for i := 0; i < b.attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	b.attempt++
	half := float64(d) / 2
	return time.Duration(half + b.rng.Float64()*half)
}

// Reset rewinds the exponential growth to the first attempt. The
// jitter stream is not rewound: delays stay decorrelated across retry
// bursts while the sequence as a whole remains a pure function of the
// seed and the call pattern.
func (b *Backoff) Reset() { b.attempt = 0 }
