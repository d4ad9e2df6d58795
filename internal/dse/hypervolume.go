package dse

import (
	"fmt"
	"sort"
	"strings"
)

// RefPoint returns the hypervolume reference point for a result set:
// the componentwise worst (maximum) latency, energy and area over all
// evaluable results, inflated by 1% so boundary points still enclose
// positive volume. An axis whose worst value is exactly 0 (every
// result free on that objective) gets a unit reference instead:
// 0×1.01 would put the reference on the points themselves, zeroing
// the hypervolume — and the ideal-to-reference box — for fronts that
// are degenerate on one axis but perfectly meaningful on the others.
// It is a pure function of the results, so sweeps that evaluate the
// same points — whatever the worker count or fleet — report identical
// hypervolumes. Failed points are skipped; a set with no evaluable
// points returns the zero reference.
func RefPoint(results []Result) [3]float64 {
	var ref [3]float64
	evaluable := false
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		evaluable = true
		lat, energy, area := Objectives(r)
		obj := [3]float64{lat, energy, area}
		for d := 0; d < 3; d++ {
			if obj[d] > ref[d] {
				ref[d] = obj[d]
			}
		}
	}
	if !evaluable {
		return ref
	}
	for d := 0; d < 3; d++ {
		if ref[d] == 0 {
			ref[d] = 1
		} else {
			ref[d] *= 1.01
		}
	}
	return ref
}

// Hypervolume computes the exact volume dominated by pts (minimized
// objectives) up to the reference point ref: the measure of the union
// of boxes [p, ref]. Points not strictly better than ref on every
// axis contribute nothing. The algorithm sweeps the third objective
// and integrates 2-D staircase areas per slab — O(n² log n), exact,
// and deterministic (ties broken lexicographically), which is all a
// front of tens of points needs.
func Hypervolume(pts [][3]float64, ref [3]float64) float64 {
	var ps [][3]float64
	for _, p := range pts {
		if p[0] < ref[0] && p[1] < ref[1] && p[2] < ref[2] {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		return 0
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][2] != ps[j][2] {
			return ps[i][2] < ps[j][2]
		}
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	hv := 0.0
	for i := 0; i < len(ps); {
		z := ps[i][2]
		j := i
		for j < len(ps) && ps[j][2] == z {
			j++
		}
		zNext := ref[2]
		if j < len(ps) {
			zNext = ps[j][2]
		}
		hv += area2D(ps[:j], ref) * (zNext - z)
		i = j
	}
	return hv
}

// area2D returns the area of the union of rectangles [p_x, ref_x] ×
// [p_y, ref_y] over the xy-projections of ps, which must already be
// sorted with x ascending: sweeping left to right, each point whose y
// improves on the best seen so far adds the horizontal slab between
// the two y levels.
func area2D(ps [][3]float64, ref [3]float64) float64 {
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ps[idx[a]][0] != ps[idx[b]][0] {
			return ps[idx[a]][0] < ps[idx[b]][0]
		}
		return ps[idx[a]][1] < ps[idx[b]][1]
	})
	area := 0.0
	bestY := ref[1]
	for _, i := range idx {
		if ps[i][1] < bestY {
			area += (ref[0] - ps[i][0]) * (bestY - ps[i][1])
			bestY = ps[i][1]
		}
	}
	return area
}

// FrontHV is the quality record of one per-workload Pareto front: the
// hypervolume dominated by the front relative to the group's
// reference point, plus the normalization that makes fronts of
// different workloads comparable.
type FrontHV struct {
	// Workload is the group label ("jpeg", "synth16", …).
	Workload string
	// Points is the number of evaluable results in the group.
	Points int
	// Front is the number of non-dominated results in the group.
	Front int
	// Ref is the group's reference point (latency s, energy, area).
	Ref [3]float64
	// Volume is the raw hypervolume dominated by the front up to Ref.
	Volume float64
	// Norm is Volume divided by the volume of the ideal-to-reference
	// box (componentwise best to Ref) — 1.0 means the front's ideal
	// point exists, 0 means the front dominates nothing. Comparing
	// Norm between a full sweep and a heuristic-restricted sweep of
	// the same workload quantifies what the restriction gave up.
	Norm float64
}

// Hypervolumes computes the hypervolume indicator of every
// per-workload Pareto front (the same grouping as GroupedFront),
// sorted by workload label, with each group's reference box derived
// from its own results. Volumes are therefore comparable only
// between sweeps that evaluated the same point set per group (e.g. a
// farm run versus a standalone run); to compare sweeps
// over *different* point sets — a heuristic-restricted sweep against
// a full one — use HypervolumesShared, which pins one reference box
// for both.
func Hypervolumes(results []Result) []FrontHV {
	return HypervolumesShared(results, nil)
}

// HypervolumesShared computes per-workload front hypervolumes for
// results, but derives each group's reference and ideal points from
// the union of results and baseline. Passing the larger sweep (or
// the concatenation of every sweep under comparison) as baseline
// fixes one reference box per workload group, which is the
// precondition for hypervolume numbers from different sweeps being
// comparable at all: without it, a sweep that never evaluates the
// bad designs shrinks its own reference box and can score a strictly
// worse front higher. Fronts are still extracted from results alone
// — baseline only shapes the measurement box.
func HypervolumesShared(results, baseline []Result) []FrontHV {
	groups := map[string][]Result{}
	refGroups := map[string][]Result{}
	for _, r := range results {
		key := groupKey(r.Point)
		groups[key] = append(groups[key], r)
		refGroups[key] = append(refGroups[key], r)
	}
	for _, r := range baseline {
		key := groupKey(r.Point)
		if _, ours := groups[key]; ours {
			refGroups[key] = append(refGroups[key], r)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []FrontHV
	for _, k := range keys {
		sub := groups[k]
		refSet := refGroups[k]
		ref := RefPoint(refSet)
		front := Front(sub)
		ideal := ref
		for _, r := range refSet {
			if r.Err != "" {
				continue
			}
			lat, energy, area := Objectives(r)
			obj := [3]float64{lat, energy, area}
			for d := 0; d < 3; d++ {
				if obj[d] < ideal[d] {
					ideal[d] = obj[d]
				}
			}
		}
		evaluable := 0
		for _, r := range sub {
			if r.Err == "" {
				evaluable++
			}
		}
		var pts [][3]float64
		for _, i := range front {
			lat, energy, area := Objectives(sub[i])
			pts = append(pts, [3]float64{lat, energy, area})
		}
		hv := FrontHV{
			Workload: WorkloadSpec{Kind: sub[0].Point.Workload, N: sub[0].Point.N}.String(),
			Points:   evaluable,
			Front:    len(front),
			Ref:      ref,
			Volume:   Hypervolume(pts, ref),
		}
		denom := (ref[0] - ideal[0]) * (ref[1] - ideal[1]) * (ref[2] - ideal[2])
		if denom > 0 {
			hv.Norm = hv.Volume / denom
		}
		out = append(out, hv)
	}
	return out
}

// BaselineOverlaps reports whether any baseline result falls in a
// workload group that results also evaluates — the precondition for
// HypervolumesShared to widen anything. Group identity includes the
// workload generator seed, so two sweeps run with different sweep
// seeds share no groups (their synthetic workload instances differ)
// and a baseline from one is silently inert for the other; callers
// should treat that as an error rather than report numbers that look
// shared but are not.
func BaselineOverlaps(results, baseline []Result) bool {
	groups := map[string]bool{}
	for _, r := range results {
		groups[groupKey(r.Point)] = true
	}
	for _, r := range baseline {
		if groups[groupKey(r.Point)] {
			return true
		}
	}
	return false
}

// HVTable renders per-workload hypervolumes as text, one front per
// line. sharedRef selects the caption: false for the default frame
// (each group's own worst), true when the reference box was widened
// with a baseline via HypervolumesShared — the caption must say
// which frame the numbers were measured in.
func HVTable(hvs []FrontHV, sharedRef bool) string {
	var b strings.Builder
	if sharedRef {
		fmt.Fprintf(&b, "hypervolume per workload front (ref = shared frame: worst over sweep ∪ baseline × 1.01)\n")
	} else {
		fmt.Fprintf(&b, "hypervolume per workload front (ref = per-group worst × 1.01)\n")
	}
	fmt.Fprintf(&b, "%-10s %7s %6s %14s %8s  %s\n",
		"workload", "points", "front", "volume", "norm", "ref (lat_s, energy, area)")
	for _, h := range hvs {
		fmt.Fprintf(&b, "%-10s %7d %6d %14.6e %8.4f  (%.4g, %.4g, %.4g)\n",
			h.Workload, h.Points, h.Front, h.Volume, h.Norm, h.Ref[0], h.Ref[1], h.Ref[2])
	}
	return b.String()
}
