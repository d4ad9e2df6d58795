package mapping

import "mpsockit/internal/obs"

// SearchObs is the mapping layer's optional instrumentation handle: a
// bundle of counters the search heuristics bump as they work. The
// zero value is fully inert — every field is a nil *obs.Counter whose
// methods are no-ops — so an Evaluator with no observer attached pays
// one nil check per event and allocates nothing (the CI bench guard
// holds schedule and objectiveCost at 0 allocs/op with these
// increments compiled in).
type SearchObs struct {
	// Schedules counts static-schedule constructions, full or suffix
	// (runs of the schedule kernel, and full schedules refused for an
	// incapable core).
	Schedules *obs.Counter
	// TasksScheduled counts tasks placed by those constructions — the
	// deterministic work count of the scoring path, which a suffix
	// schedule shrinks and a full one does not.
	TasksScheduled *obs.Counter
	// CostEvals counts objective-cost evaluations of a candidate
	// assignment.
	CostEvals *obs.Counter
	// AnnealMoves counts proposed simulated-annealing moves.
	AnnealMoves *obs.Counter
	// AnnealAccepts counts accepted annealing moves.
	AnnealAccepts *obs.Counter
	// AnnealRejects counts rejected (reverted) annealing moves.
	AnnealRejects *obs.Counter
	// Certified counts searches ended by the admissible lower bound:
	// an anneal whose start meets it (and makes no move), an exhaustive
	// search whose incumbent does.
	Certified *obs.Counter
}
