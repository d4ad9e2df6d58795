package dse

import (
	"mpsockit/internal/mapping"
	"mpsockit/internal/obs"
	"mpsockit/internal/sim"
)

// EvalObs bundles the evaluation layer's instruments. The zero value
// is fully inert — every field is a nil instrument whose methods are
// no-ops — so an unobserved EvalContext pays one nil check per event
// and allocates nothing extra; attaching a live EvalObs adds atomic
// updates but still no allocations (TestInstrumentationAllocFree
// holds both). Metrics are a pure side channel: nothing read from
// them or from the clock feeds back into evaluation, so observed and
// unobserved sweeps emit byte-identical results.
type EvalObs struct {
	// Points counts design-point evaluations.
	Points *obs.Counter
	// Errors counts evaluations that returned an error in Result.Err.
	Errors *obs.Counter

	// LatMVP, LatPipe, LatVP, LatCal and LatJobs record per-point
	// evaluation wall-clock latency in microseconds, one histogram per
	// fidelity; LatJobs holds the rtos job-bag points (fid="rtos").
	LatMVP  *obs.Histogram
	LatPipe *obs.Histogram
	LatVP   *obs.Histogram
	LatCal  *obs.Histogram
	LatJobs *obs.Histogram

	// GraphHits/GraphMisses count workload-graph prototype cache
	// lookups; MultiHits/MultiMisses the multi-app scenario cache;
	// CalHits/CalMisses the per-group calibration-fit cache (a miss
	// measures the group's probes on the vp and fits the factors).
	GraphHits   *obs.Counter
	GraphMisses *obs.Counter
	MultiHits   *obs.Counter
	MultiMisses *obs.Counter
	CalHits     *obs.Counter
	CalMisses   *obs.Counter
	// PlatBuilds counts platforms built: a point whose PlatSpec is not
	// the context's last one's.
	PlatBuilds *obs.Counter
	// ExecReused counts task-level executions not run because the last
	// execution of their mode ran the same graph, platform, assignment
	// and units (execEntry), cal probes included.
	ExecReused *obs.Counter

	// VPHits and VPMisses counted the virtual-platform pool, which
	// closed-form vp refinement retired. NewEvalObs leaves them nil
	// (a nil counter reads 0); they remain only because external
	// readers of EvalObs still reference the fields.
	VPHits   *obs.Counter
	VPMisses *obs.Counter

	// SimScheduled/SimExecuted/SimCancelled aggregate kernel event
	// counts across every kernel the context used; PoolHits/PoolMisses
	// aggregate event-record pool reuse; HeapMax tracks the deepest
	// pending-event queue seen, heap plus now-queue (a high-water
	// gauge).
	SimScheduled *obs.Counter
	SimExecuted  *obs.Counter
	SimCancelled *obs.Counter
	PoolHits     *obs.Counter
	PoolMisses   *obs.Counter
	HeapMax      *obs.Gauge

	// Search is forwarded to the mapping evaluator (schedule, cost and
	// annealing counters).
	Search mapping.SearchObs
}

// NewEvalObs registers the evaluation layer's metric families on r
// and returns the live handle to attach via EvalContext.SetObs or
// Engine.Obs.
func NewEvalObs(r *obs.Registry) EvalObs {
	latency := func(fid string) *obs.Histogram {
		return r.Histogram("dse_eval_latency_us",
			"Per-point evaluation wall-clock latency in microseconds, by fidelity.",
			"fid", fid)
	}
	cacheHit := func(cache string) *obs.Counter {
		return r.Counter("dse_cache_hits_total",
			"EvalContext cache hits, by cache.", "cache", cache)
	}
	cacheMiss := func(cache string) *obs.Counter {
		return r.Counter("dse_cache_misses_total",
			"EvalContext cache misses (entry built), by cache.", "cache", cache)
	}
	return EvalObs{
		Points:  r.Counter("dse_points_total", "Design points evaluated."),
		Errors:  r.Counter("dse_point_errors_total", "Design points whose evaluation returned an error."),
		LatMVP:  latency("mvp"),
		LatPipe: latency("pipe"),
		LatVP:   latency("vp"),
		LatCal:  latency("cal"),
		LatJobs: latency("rtos"),

		GraphHits:   cacheHit("graph"),
		GraphMisses: cacheMiss("graph"),
		MultiHits:   cacheHit("multi"),
		MultiMisses: cacheMiss("multi"),
		CalHits:     cacheHit("cal"),
		CalMisses:   cacheMiss("cal"),
		PlatBuilds:  r.Counter("dse_platform_builds_total", "Platforms built rather than reset and reused."),
		ExecReused:  r.Counter("dse_exec_reused_total", "Task-level executions reused from the last identical run of their mode."),

		SimScheduled: r.Counter("sim_events_scheduled_total", "Kernel events scheduled."),
		SimExecuted:  r.Counter("sim_events_executed_total", "Kernel events executed."),
		SimCancelled: r.Counter("sim_events_cancelled_total", "Kernel events cancelled before firing."),
		PoolHits:     r.Counter("sim_pool_hits_total", "Event records recycled from the kernel free list."),
		PoolMisses:   r.Counter("sim_pool_misses_total", "Event records freshly allocated by the kernel."),
		HeapMax:      r.Gauge("sim_heap_depth_max", "Most events pending at once (heap plus now-queue) observed."),

		Search: mapping.SearchObs{
			Schedules:      r.Counter("map_schedules_total", "Static-schedule constructions, full or suffix."),
			TasksScheduled: r.Counter("map_tasks_scheduled_total", "Tasks placed by static-schedule constructions."),
			CostEvals:      r.Counter("map_cost_evals_total", "Objective-cost evaluations."),
			AnnealMoves:    r.Counter("map_anneal_moves_total", "Proposed annealing moves."),
			AnnealAccepts:  r.Counter("map_anneal_accepts_total", "Accepted annealing moves."),
			AnnealRejects:  r.Counter("map_anneal_rejects_total", "Rejected (reverted) annealing moves."),
			Certified:      r.Counter("map_certified_total", "Searches ended by the admissible lower bound."),
		},
	}
}

// latency returns the fidelity's latency histogram (nil when
// unobserved or the fidelity is unknown) — the Evaluate wrapper only
// reads the clock when this is non-nil.
func (o *EvalObs) latency(fid string) *obs.Histogram {
	switch fid {
	case "mvp":
		return o.LatMVP
	case "pipe":
		return o.LatPipe
	case "vp":
		return o.LatVP
	case "cal":
		return o.LatCal
	case "rtos":
		return o.LatJobs
	}
	return nil
}

// absorb folds the growth of k's monotonic stats since *last, their
// value at the previous absorb of k, into the counters.
func (o *EvalObs) absorb(last *sim.KernelStats, k *sim.Kernel) {
	s := k.Stats()
	o.SimScheduled.Add(int64(s.Scheduled - last.Scheduled))
	o.SimExecuted.Add(int64(s.Executed - last.Executed))
	o.SimCancelled.Add(int64(s.Cancelled - last.Cancelled))
	o.PoolHits.Add(int64(s.PoolHits - last.PoolHits))
	o.PoolMisses.Add(int64(s.PoolMisses - last.PoolMisses))
	o.HeapMax.Max(int64(s.HeapMax))
	*last = s
}
