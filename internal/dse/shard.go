package dse

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

// Shard is one contiguous slice [Lo, Hi) of a sweep's expanded point
// list, assigned to a single worker process. Contiguity keeps every
// shard's JSONL output a literal substring (by point ID) of the
// unsharded sweep, so merging shards is concatenation in ID order —
// no re-evaluation, no reordering ambiguity. Per-point seeds derive
// from the sweep seed alone (see Sweep.Points), which is what makes
// shards evaluated on different hosts byte-compatible.
type Shard struct {
	// Index identifies this shard, 0-based.
	Index int `json:"index"`
	// Count is the total number of shards the sweep was split into.
	Count int `json:"count"`
	// Lo is the first point ID of the shard (inclusive).
	Lo int `json:"lo"`
	// Hi is one past the last point ID of the shard (exclusive). A
	// shard with Lo == Hi is empty — PlanShards never produces one
	// (splitting finer than one point per shard is an error), but a
	// coordinator worker whose whole lease was stolen can checkpoint
	// one — and its result file is header-only.
	Hi int `json:"hi"`
}

// Len returns the number of points in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// String names the shard for progress and error messages.
func (s Shard) String() string {
	return fmt.Sprintf("shard %d/%d (points %d..%d)", s.Index, s.Count, s.Lo, s.Hi)
}

// EstCost estimates a point's relative evaluation cost for shard
// load balancing. It is a planning heuristic, not a measurement: the
// pipelined fidelity scales with its iteration count, the RTOS job
// bag scales with job count, and the search heuristics multiply the
// number of candidate schedules evaluated. Only the ratio between
// point costs matters, and PlanShards is deterministic for any fixed
// cost function.
//
// vp points carry no weight of their own: refinement is closed-form
// (~130 ns, BenchmarkVPRefine/closed), so a vp point costs its
// mapping and task-level execution like its mvp twin —
// BenchmarkVPPointEval/reused measured 1.05x the same point at mvp
// (~55 vs ~50 us on a 2-vCPU 2.1 GHz Xeon).
func EstCost(p Point) float64 {
	c := 1.0 + 0.25*float64(p.Plat.CoreCount())
	switch p.Fidelity {
	case "pipe":
		it := p.Iterations
		if it <= 0 {
			it = 8
		}
		c *= 1 + float64(it)/4
	case "cal":
		// A cal point is task-level plus its share of the group's
		// probes. Each probe maps and executes once more at task
		// level (a group fit over K probes measured (1+K)x an mvp
		// evaluation on the same host), paid once per group by
		// whichever shard sees the group first; charging each member
		// half a probe keeps shard boundaries near the truth for the
		// usual two-member groups without knowing the group size here.
		c *= 1 + 0.5*float64(len(p.CalProbes))
	case "rtos":
		n := p.N
		if n <= 0 {
			n = 32
		}
		c *= 1 + float64(n)/16
	}
	switch p.Heuristic {
	case "anneal":
		c *= 3
	case "exhaustive":
		c *= 10
	}
	// A multi-app scenario maps and executes the union of its
	// constituent graphs, so its cost scales with the app count.
	if len(p.Apps) > 1 {
		c *= float64(len(p.Apps))
	}
	// A memory contention model adds a service event per cross-PE
	// payload on the execute path and an extra term per estimator
	// charge — a small constant factor, not a new simulation level.
	if p.Plat.Mem != "" {
		c *= 1.15
	}
	return c
}

// PlanShards splits the expanded point list into n contiguous shards
// balanced on EstCost: shard k closes once its cumulative cost
// reaches k+1 n-ths of the sweep total, so expensive regions of the
// cross product (vp fidelity, wide platforms) spread across shards
// instead of landing on whoever drew the high point IDs. Every shard
// gets at least one point; asking for more shards than the sweep has
// points is an error naming the valid range, because the extra shards
// could only ever be empty make-work. The plan is a pure function
// of (points, n) — every worker process computes the same plan from
// the same spec, so no coordinator is needed.
func PlanShards(points []Point, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("dse: shard count must be >= 1 (got %d)", n)
	}
	if n > len(points) {
		return nil, fmt.Errorf("dse: cannot split %d points into %d shards; use a shard count in 1..%d",
			len(points), n, len(points))
	}
	total := 0.0
	for _, p := range points {
		total += EstCost(p)
	}
	shards := make([]Shard, n)
	lo, cum := 0, 0.0
	for k := 0; k < n; k++ {
		hi := lo
		if k == n-1 {
			hi = len(points)
		} else {
			target := total * float64(k+1) / float64(n)
			for hi < len(points) && (hi == lo || cum+EstCost(points[hi]) <= target) {
				cum += EstCost(points[hi])
				hi++
			}
		}
		shards[k] = Shard{Index: k, Count: n, Lo: lo, Hi: hi}
		lo = hi
	}
	return shards, nil
}

// ParseShardArg parses a -shard flag value "k/n" (0-based shard k of
// n total), e.g. "0/4" … "3/4". Errors are specific — a malformed
// value, a non-positive total and an out-of-range index each name
// what to fix and the valid range, because -shard is typically typed
// into N different hosts' command lines and a generic "bad shard"
// hides which invocation is wrong.
func ParseShardArg(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("dse: bad shard %q (want K/N, e.g. 0/4)", s)
	}
	k, kerr := strconv.Atoi(strings.TrimSpace(ks))
	n, nerr := strconv.Atoi(strings.TrimSpace(ns))
	switch {
	case kerr != nil || nerr != nil:
		return 0, 0, fmt.Errorf("dse: bad shard %q (K and N must be integers, e.g. 0/4)", s)
	case n < 1:
		return 0, 0, fmt.Errorf("dse: bad shard %q (total shard count N must be >= 1, got %d)", s, n)
	case k < 0 || k >= n:
		return 0, 0, fmt.Errorf("dse: bad shard %q (shard index K must be in 0..%d for N=%d)", s, n-1, n)
	}
	return k, n, nil
}

// ShardPath derives a shard's output filename from the base -out
// path: "dse.jsonl" becomes "dse.shard-2.jsonl" for shard 2. The
// suffix goes before the final extension so globbing "dse.shard-*"
// collects exactly one sweep's shards.
func ShardPath(out string, k int) string {
	ext := filepath.Ext(out)
	return strings.TrimSuffix(out, ext) + ".shard-" + strconv.Itoa(k) + ext
}
