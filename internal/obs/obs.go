// Package obs is the toolkit's dependency-free observability core:
// atomic counters, gauges and power-of-two-bucket histograms behind a
// registry with Prometheus-text and JSON exposition, plus a span
// tracer emitting Chrome trace-event JSONL (loadable in Perfetto and
// chrome://tracing).
//
// The package exists so the stack can explain its own behavior at
// runtime without giving up its two hard-won properties:
//
//   - Zero-allocation hot paths. Counter, Gauge and Histogram updates
//     are single atomic operations on preallocated state — no
//     interfaces, no maps, no label rendering at update time. Every
//     update method is additionally a no-op on a nil receiver, so
//     instrumented code holds plain handle fields and never branches
//     on "is telemetry enabled": disabled instrumentation is a nil
//     check, enabled instrumentation is a nil check plus one atomic
//     add. Both are 0 B/op, and the bench CI guard holds that.
//
//   - Byte-identical results. Nothing in this package feeds back into
//     simulation state, seeds, or result bytes: metrics and spans are
//     a side channel read at exposition time. Sweeps with telemetry
//     enabled produce byte-identical JSONL/Pareto/hypervolume output
//     to sweeps without (internal/dse holds that as a regression
//     test).
//
// Registration (Registry.Counter, .Gauge, .Histogram, .GaugeFunc,
// .CounterFunc) may allocate — it happens once at setup, not per
// update. Metric identity is the Prometheus convention: a family name
// plus an optional fixed label set; registering the same identity
// twice returns the same instrument, so independent subsystems can
// share a registry without coordination.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; all methods are safe for concurrent use and
// no-ops on a nil receiver, so instrumented code can hold optional
// counter handles without nil branches of its own.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta. Negative deltas are ignored — counters are
// monotonic by contract (the snapshot/diff property tests hold this).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic high-water mark. The zero value is ready to use; all
// methods are safe for concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Max raises the gauge to v if v exceeds the current value — the
// high-water-mark operation (e.g. event-heap depth).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations whose value needs i significant bits, so bucket
// boundaries are powers of two (le 0, 1, 3, 7, ..., 2^(i)-1). 40
// buckets cover [0, 2^39), five orders of magnitude beyond any
// latency this toolkit measures in microseconds.
const HistBuckets = 40

// Histogram is a power-of-two-bucket histogram of non-negative int64
// observations (typically latencies in microseconds). Observe is one
// bounds computation plus three atomic adds — no allocation, no
// locks. The zero value is ready to use; all methods are safe for
// concurrent use and no-ops on a nil receiver.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// bucketOf maps a value to its bucket index: the number of
// significant bits, clamped to the last bucket. Negative values clamp
// to bucket 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns bucket i's inclusive upper bound (2^i - 1); the
// last bucket is unbounded and reports -1 (rendered "+Inf").
func BucketBound(i int) int64 {
	if i >= HistBuckets-1 {
		return -1
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value. The count is incremented last, so a
// quiescent histogram always satisfies sum(buckets) == count (the
// property test holds this after concurrent hammering).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns bucket i's raw (non-cumulative) count.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil {
		return 0
	}
	return h.buckets[i].Load()
}
