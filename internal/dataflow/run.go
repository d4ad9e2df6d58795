package dataflow

import (
	"container/heap"
	"fmt"
)

// RunOptions configures a self-timed execution.
type RunOptions struct {
	// Caps are per-edge buffer capacities (tokens). 0 means unbounded.
	Caps []int
	// Iterations is the number of sink firings to complete.
	Iterations int
	// SourcePeriod, when positive, releases the source strictly
	// periodically (timer-triggered, section III); the source then
	// fires at its release instants unless blocked by back-pressure.
	SourcePeriod int64
	// Source and Sink default to the first and last actor.
	Source *Actor
	Sink   *Actor
	// MaxTime aborts the run (deadlock guard). 0 = derived default.
	MaxTime int64
}

// RunResult reports a self-timed execution.
type RunResult struct {
	// Makespan is the completion time of the last sink firing.
	Makespan int64
	// SinkTimes are the completion instants of sink firings.
	SinkTimes []int64
	// SourceBlocked counts source releases that could not fire on
	// time because of back-pressure: zero means the periodic source
	// ran wait-free (the schedulability criterion of section III).
	SourceBlocked int
	// Deadlocked is set when execution stopped early with no actor
	// able to fire.
	Deadlocked bool
	// TimedOut is set when MaxTime elapsed first.
	TimedOut bool
	// Firings counts total firings per actor.
	Firings []int
}

// Throughput returns steady-state sink firings per picosecond,
// measured over the second half of the run (first half discarded as
// warm-up).
func (r *RunResult) Throughput() float64 {
	n := len(r.SinkTimes)
	if n < 4 {
		return 0
	}
	i0 := n / 2
	dt := r.SinkTimes[n-1] - r.SinkTimes[i0]
	if dt <= 0 {
		return 0
	}
	return float64(n-1-i0) / float64(dt)
}

// Period returns the steady-state inter-firing time of the sink.
func (r *RunResult) Period() float64 {
	t := r.Throughput()
	if t == 0 {
		return 0
	}
	return 1 / t
}

type fireEvent struct {
	time  int64
	seq   int
	actor int
}

type fireHeap []fireEvent

func (h fireHeap) Len() int { return len(h) }
func (h fireHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h fireHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fireHeap) Push(x any)   { *h = append(*h, x.(fireEvent)) }
func (h *fireHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h fireHeap) peek() int64   { return h[0].time }
func (h fireHeap) empty() bool   { return len(h) == 0 }

// Run executes the graph self-timed: every actor fires as soon as its
// input tokens and output space allow (data-driven semantics). Tokens
// are consumed and space reserved at firing start; tokens are
// produced at firing end.
func (g *Graph) Run(opt RunOptions) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Actors)
	src := opt.Source
	if src == nil {
		src = g.Actors[0]
	}
	sink := opt.Sink
	if sink == nil {
		sink = g.Actors[n-1]
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 1
	}
	caps := opt.Caps
	if caps == nil {
		caps = make([]int, len(g.Edges))
	}
	if len(caps) != len(g.Edges) {
		return nil, fmt.Errorf("dataflow: caps has %d entries, graph has %d edges", len(caps), len(g.Edges))
	}
	maxTime := opt.MaxTime
	if maxTime == 0 {
		// Generous default: total work × iterations × actors.
		var w int64
		for _, a := range g.Actors {
			for _, t := range a.ExecTime {
				w += t
			}
		}
		if w == 0 {
			w = 1
		}
		maxTime = w * int64(opt.Iterations+4) * int64(n+2) * 4
		if opt.SourcePeriod > 0 {
			rv, _ := g.RepetitionVector()
			maxTime += opt.SourcePeriod * int64(opt.Iterations+8) * int64(rv[src.idx]*src.Phases()+1)
		}
	}

	tokens := make([]int, len(g.Edges))
	reserved := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		tokens[i] = e.Initial
	}
	inEdges := make([][]*Edge, n)
	outEdges := make([][]*Edge, n)
	for _, e := range g.Edges {
		inEdges[e.Dst.idx] = append(inEdges[e.Dst.idx], e)
		outEdges[e.Src.idx] = append(outEdges[e.Src.idx], e)
	}
	phase := make([]int, n) // next phase to fire
	busy := make([]bool, n) // firing in progress
	res := &RunResult{Firings: make([]int, n)}
	// Periodic source bookkeeping.
	releases := 0 // source releases so far (periodic mode)
	blockedPending := false

	now := int64(0)
	seq := 0
	var events fireHeap

	canFire := func(ai int) bool {
		if busy[ai] {
			return false
		}
		a := g.Actors[ai]
		if a == src && opt.SourcePeriod > 0 && res.Firings[ai] >= releases {
			return false // not released yet
		}
		ph := phase[ai]
		for _, e := range inEdges[ai] {
			if tokens[e.idx] < e.Cons[ph] {
				return false
			}
		}
		for _, e := range outEdges[ai] {
			if caps[e.idx] > 0 && tokens[e.idx]+reserved[e.idx]+e.Prod[ph] > caps[e.idx] {
				return false
			}
		}
		return true
	}

	startFiring := func(ai int) {
		a := g.Actors[ai]
		ph := phase[ai]
		for _, e := range inEdges[ai] {
			tokens[e.idx] -= e.Cons[ph]
		}
		for _, e := range outEdges[ai] {
			reserved[e.idx] += e.Prod[ph]
		}
		busy[ai] = true
		heap.Push(&events, fireEvent{time: now + a.ExecTime[ph], seq: seq, actor: ai})
		seq++
	}

	sinkDone := 0
	// Seed: source releases at t=0 in periodic mode.
	if opt.SourcePeriod > 0 {
		releases = 1
	}
	progress := true
	for sinkDone < opt.Iterations && now <= maxTime {
		// Start every actor that can fire (fixpoint at current time).
		progress = true
		for progress {
			progress = false
			for ai := 0; ai < n; ai++ {
				if canFire(ai) {
					if g.Actors[ai] == src && opt.SourcePeriod > 0 && blockedPending {
						blockedPending = false
					}
					startFiring(ai)
					progress = true
				}
			}
		}
		// Periodic source release check: if a release instant passed
		// and the source could not start, it is not wait-free.
		nextRelease := int64(-1)
		if opt.SourcePeriod > 0 {
			nextRelease = int64(releases) * opt.SourcePeriod
		}
		if events.empty() {
			if nextRelease >= 0 {
				// Idle until the next source release.
				now = nextRelease
				releases++
				if !canFire(src.idx) {
					res.SourceBlocked++
					blockedPending = true
				}
				continue
			}
			res.Deadlocked = true
			break
		}
		// Advance to the earlier of next completion and next release.
		if nextRelease >= 0 && nextRelease <= events.peek() {
			now = nextRelease
			releases++
			if !canFire(src.idx) && busy[src.idx] {
				// Source still busy with the previous firing: release
				// queues; it will fire late only if blocked again.
				continue
			}
			if !canFire(src.idx) {
				res.SourceBlocked++
				blockedPending = true
			}
			continue
		}
		ev := heap.Pop(&events).(fireEvent)
		now = ev.time
		ai := ev.actor
		a := g.Actors[ai]
		ph := phase[ai]
		for _, e := range outEdges[ai] {
			reserved[e.idx] -= e.Prod[ph]
			tokens[e.idx] += e.Prod[ph]
		}
		busy[ai] = false
		phase[ai] = (ph + 1) % a.Phases()
		res.Firings[ai]++
		if a == sink {
			sinkDone++
			res.SinkTimes = append(res.SinkTimes, now)
			res.Makespan = now
		}
	}
	if now > maxTime {
		res.TimedOut = true
	}
	return res, nil
}

// SelfTimedPeriod measures the graph's maximal-throughput steady-state
// sink period with effectively unbounded buffers, by self-timed
// simulation over iters sink firings.
func (g *Graph) SelfTimedPeriod(iters int) (float64, error) {
	r, err := g.Run(RunOptions{Iterations: iters})
	if err != nil {
		return 0, err
	}
	if r.Deadlocked {
		return 0, fmt.Errorf("dataflow: graph deadlocks")
	}
	return r.Period(), nil
}

// safeCaps returns a per-edge capacity that certainly sustains
// maximal throughput: initial tokens plus two full cyclo-static
// cycles of production and consumption on both endpoints.
func (g *Graph) safeCaps(rv []int) []int {
	caps := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		p := sum(e.Prod) * rv[e.Src.idx]
		c := sum(e.Cons) * rv[e.Dst.idx]
		caps[i] = e.Initial + 2*(p+c)
		if caps[i] < 1 {
			caps[i] = 1
		}
	}
	return caps
}

// MinBufferSizes computes per-edge buffer capacities that are minimal
// (per-edge, given the others) while the timer-driven source stays
// wait-free at the given period — the buffer-capacity problem of the
// paper's reference [5]. iters controls the simulation horizon used
// as the feasibility oracle.
//
// The algorithm starts from a provably sufficient capacity vector and
// binary-searches each edge downward, iterating to a fixpoint. The
// result is deterministic; safety is re-checked by the final
// verification run.
func (g *Graph) MinBufferSizes(sourcePeriod int64, iters int) ([]int, error) {
	rv, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	if iters < 8 {
		iters = 8
	}
	feasible := func(caps []int) bool {
		r, err := g.Run(RunOptions{
			Caps: caps, Iterations: iters, SourcePeriod: sourcePeriod,
		})
		if err != nil {
			return false
		}
		return !r.Deadlocked && !r.TimedOut && r.SourceBlocked == 0 &&
			len(r.SinkTimes) >= iters
	}
	caps := g.safeCaps(rv)
	if !feasible(caps) {
		return nil, fmt.Errorf("dataflow: period %d infeasible even with safe buffers (source rate too high?)", sourcePeriod)
	}
	// Iterate edge-wise binary search to a fixpoint (two passes are
	// almost always enough; we cap at four).
	for pass := 0; pass < 4; pass++ {
		changed := false
		for i := range caps {
			orig := caps[i]
			lo, hi := 1, caps[i] // invariant: hi feasible
			for lo < hi {
				mid := (lo + hi) / 2
				caps[i] = mid
				if feasible(caps) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			caps[i] = hi
			if hi != orig {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if !feasible(caps) {
		return nil, fmt.Errorf("dataflow: internal error: fixpoint capacities infeasible")
	}
	return caps, nil
}

// TotalTokens sums a capacity vector — the memory footprint proxy
// reported in experiment E5.
func TotalTokens(caps []int) int {
	t := 0
	for _, c := range caps {
		t += c
	}
	return t
}
