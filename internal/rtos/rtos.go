// Package rtos models the operating-system layer of section II-B of
// the paper. Its position: future manycore OSes must offer two kinds
// of computing resources — time-shared cores for sequential code and
// space-shared cores dedicated to single parallel applications — and
// need "scheduling algorithms that can in a reactive way mitigate
// multiple requests for parallel computing resources as well as
// sequential computing resources … adjusted by e.g. modifying the
// frequency at which each core is running". The paper notes no such
// algorithm had been published; HybridScheduler is our concrete
// realization, so experiment E3 can measure the behaviour the section
// argues for.
package rtos

import (
	"slices"
	"sort"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// JobKind separates the two resource demands of section II-B.
type JobKind int

// Job kinds.
const (
	Sequential JobKind = iota // wants a time-slice of a time-shared core
	Parallel                  // wants dedicated space-shared cores
)

func (k JobKind) String() string {
	if k == Sequential {
		return "seq"
	}
	return "par"
}

// Job is one unit of application demand submitted to the scheduler.
type Job struct {
	ID   int
	Name string
	Kind JobKind

	// WorkCycles is the total computational work. For parallel jobs it
	// is divided across the granted cores.
	WorkCycles int64
	// MaxWidth is the maximum useful parallelism of a parallel job.
	// The application must be "fully functional starting from a
	// minimal set of processing resources" (section II-C), i.e. jobs
	// are moldable: the scheduler may grant any width in [1,MaxWidth].
	MaxWidth int
	// Deadline is absolute; zero means best-effort.
	Deadline sim.Time

	Arrival  sim.Time
	Started  sim.Time
	Finished sim.Time
	Width    int  // granted width (parallel jobs)
	Boosted  bool // whether DVFS boost was applied
	Missed   bool

	dispatched bool             // Started is set (first dispatch)
	cores      []*platform.Core // a parallel job's grant
	dur        sim.Time         // and run time
}

// Lateness returns completion time minus deadline (negative = early).
func (j *Job) Lateness() sim.Time {
	if j.Deadline == 0 {
		return 0
	}
	return j.Finished - j.Deadline
}

// Config tunes the scheduler.
type Config struct {
	// Quantum is the time-shared round-robin slice.
	Quantum sim.Time
	// CtxSwitch is the overhead charged per preemption or dispatch on
	// time-shared cores.
	CtxSwitch sim.Time
	// SyncCyclesPerStep is the barrier cost added to parallel jobs per
	// doubling of width (models combining-tree synchronization).
	SyncCyclesPerStep int64
	// BoostWhenTight enables the reactive DVFS response: boost granted
	// cores when the predicted finish would miss the deadline.
	BoostWhenTight bool
}

// DefaultConfig returns reasonable model parameters.
func DefaultConfig() Config {
	return Config{
		Quantum:           500 * sim.Microsecond,
		CtxSwitch:         2 * sim.Microsecond,
		SyncCyclesPerStep: 200,
		BoostWhenTight:    true,
	}
}

// Stats summarizes a scheduling run.
type Stats struct {
	Completed   int
	Missed      int
	Boosts      int
	AvgTurnMs   float64
	MaxLateness sim.Time
	// BusyTime accumulates core-seconds of useful work (utilization
	// numerator).
	BusyTime sim.Time
}

// MissRate returns the fraction of deadline-bearing jobs that missed.
func (s Stats) MissRate() float64 {
	total := s.Completed
	if total == 0 {
		return 0
	}
	return float64(s.Missed) / float64(total)
}

// HybridScheduler implements the reactive time-/space-shared policy as
// a kernel state machine, in the idiom of mapping.Executor: it is the
// sim.Handler of all its events, runs no goroutine, schedules no closure
// and leaves nothing behind. Each event stands where the goroutine
// scheduler of procsched_test.go parked or scheduled a closure, at the
// same delay and in the same order.
type HybridScheduler struct {
	K   *sim.Kernel
	P   *platform.Platform
	Cfg Config

	// time-shared side
	ts      []tsCore
	tsReady []*Job // EDF-ordered
	tsIdle  []int  // cores that found tsReady empty, woken FIFO by Submit

	// space-shared side
	ssFree []*platform.Core
	ssWait []*Job // EDF-ordered

	jobs  []*Job // by ID
	done  []*Job
	stats Stats
}

// tsCore is a time-shared core's dispatcher: its program counter and
// the slice of job j it is running (run cycles taking dur).
type tsCore struct {
	c   *platform.Core
	pc  int
	j   *Job
	run int64
	dur sim.Time
}

// Time-shared program counters: pick the most urgent ready job (or go
// idle), pay the context switch, run one quantum-bounded slice.
const (
	tsPick = iota
	tsSwitch
	tsSlice
)

// An event's arg is a core index or job ID shifted left by fireBits,
// tagged with its kind in the low bits.
const (
	fireCore     = iota // time-shared core: resume its state machine
	fireDispatch        // grant waiting parallel jobs
	fireFinish          // parallel job done
	fireBits     = 2
)

// NewHybrid builds a scheduler over the platform's cores: cores with
// SpaceShared=true form the gang pool; the rest are time-shared. At
// least one core must exist in each pool; if the platform has no
// time-shared cores, the first space-shared core is reassigned.
func NewHybrid(k *sim.Kernel, p *platform.Platform, cfg Config) *HybridScheduler {
	s := &HybridScheduler{K: k, P: p, Cfg: cfg}
	for _, c := range p.Cores {
		if c.SpaceShared {
			s.ssFree = append(s.ssFree, c)
		} else {
			s.ts = append(s.ts, tsCore{c: c})
		}
	}
	if len(s.ts) == 0 && len(s.ssFree) > 0 {
		s.ts = append(s.ts, tsCore{c: s.ssFree[0]})
		s.ssFree = s.ssFree[1:]
	}
	for i := range s.ts {
		k.ScheduleH(0, s, i<<fireBits|fireCore)
	}
	return s
}

// Submit enqueues a job at the current virtual time.
func (s *HybridScheduler) Submit(j *Job) {
	j.ID = len(s.jobs)
	s.jobs = append(s.jobs, j)
	j.Arrival = s.K.Now()
	switch j.Kind {
	case Sequential:
		s.tsReady = insertEDF(s.tsReady, j)
		for _, i := range s.tsIdle {
			s.K.ScheduleH(0, s, i<<fireBits|fireCore)
		}
		s.tsIdle = s.tsIdle[:0]
	case Parallel:
		if j.MaxWidth < 1 {
			j.MaxWidth = 1
		}
		s.ssWait = insertEDF(s.ssWait, j)
		s.K.ScheduleH(0, s, fireDispatch)
	}
}

// Fire implements sim.Handler: it dispatches one scheduler event.
func (s *HybridScheduler) Fire(arg int) {
	switch arg & (1<<fireBits - 1) {
	case fireCore:
		s.step(arg >> fireBits)
	case fireDispatch:
		s.dispatchParallel()
	case fireFinish:
		s.finish(s.jobs[arg>>fireBits])
	}
}

// due is the job's EDF key: its deadline, or Forever if best-effort.
func (j *Job) due() sim.Time {
	if j.Deadline == 0 {
		return sim.Forever
	}
	return j.Deadline
}

// insertEDF inserts j into the EDF-ordered queue q behind every job due
// no later: equal deadlines keep enqueue order, so a preempted job
// rotates to the back of its class (round-robin within one deadline).
func insertEDF(q []*Job, j *Job) []*Job {
	i := sort.Search(len(q), func(x int) bool { return q[x].due() > j.due() })
	return slices.Insert(q, i, j)
}

// step advances time-shared core i's dispatcher to its next wait: EDF
// with quantum slicing, context-switch overhead on every dispatch.
func (s *HybridScheduler) step(i int) {
	t := &s.ts[i]
	switch t.pc {
	case tsSwitch:
		t.run = min(t.j.WorkCycles, t.c.TimeToCycles(s.Cfg.Quantum))
		t.dur = t.c.Cycles(t.run)
		t.pc = tsSlice
		s.K.ScheduleH(t.dur, s, i<<fireBits|fireCore)
		return
	case tsSlice:
		s.stats.BusyTime += t.dur
		if t.j.WorkCycles -= t.run; t.j.WorkCycles <= 0 {
			s.complete(t.j)
		} else {
			s.tsReady = insertEDF(s.tsReady, t.j)
		}
	}
	if len(s.tsReady) == 0 {
		t.pc = tsPick
		s.tsIdle = append(s.tsIdle, i)
		return
	}
	t.j = s.tsReady[0]
	s.tsReady = slices.Delete(s.tsReady, 0, 1)
	if !t.j.dispatched {
		t.j.dispatched, t.j.Started = true, s.K.Now()
	}
	t.pc = tsSwitch
	s.K.ScheduleH(s.Cfg.CtxSwitch, s, i<<fireBits|fireCore)
}

// dispatchParallel implements the reactive space-sharing policy:
//
//  1. Take the most urgent waiting job (EDF).
//  2. Grant the smallest width that still meets its deadline at
//     nominal frequency (jobs are moldable; small grants leave room
//     for other requests — the "reactive mitigation" of competing
//     demands).
//  3. If even the full free pool at nominal frequency misses, boost
//     the granted cores' frequency (section II-B's DVFS adjustment).
//  4. Best-effort jobs take one core when nothing urgent waits.
func (s *HybridScheduler) dispatchParallel() {
	for len(s.ssWait) > 0 && len(s.ssFree) > 0 {
		j := s.ssWait[0]
		width, boost := s.chooseGrant(j)
		if width == 0 {
			return // not enough resources yet; retry on next release
		}
		s.ssWait = slices.Delete(s.ssWait, 0, 1)
		grant := s.ssFree[:width]
		s.ssFree = s.ssFree[width:]
		s.launch(j, grant, boost)
	}
}

// chooseGrant picks (width, boost) for job j given the free pool.
func (s *HybridScheduler) chooseGrant(j *Job) (int, bool) {
	free := len(s.ssFree)
	if free == 0 {
		return 0, false
	}
	max := j.MaxWidth
	if max > free {
		max = free
	}
	if j.Deadline == 0 {
		// Best-effort: take a single core; parallel width is a luxury
		// urgent jobs may need more.
		return 1, false
	}
	slack := j.Deadline - s.K.Now()
	if slack <= 0 {
		// Already late: throw everything at it, boosted.
		return max, s.Cfg.BoostWhenTight
	}
	for w := 1; w <= max; w++ {
		if s.predictedDur(j, s.ssFree[:w], false) <= slack {
			return w, false
		}
	}
	if s.Cfg.BoostWhenTight && s.predictedDur(j, s.ssFree[:max], true) <= slack {
		return max, true
	}
	return max, s.Cfg.BoostWhenTight
}

// predictedDur estimates the execution time of j on the given cores.
func (s *HybridScheduler) predictedDur(j *Job, cores []*platform.Core, boost bool) sim.Time {
	w := int64(len(cores))
	per := j.WorkCycles/w + s.syncCycles(len(cores))
	hz := cores[0].Hz()
	if boost {
		hz = cores[0].Levels[len(cores[0].Levels)-1]
	}
	return sim.Time(per * (int64(sim.Second) / hz))
}

func (s *HybridScheduler) syncCycles(w int) int64 {
	steps := int64(0)
	for n := 1; n < w; n *= 2 {
		steps++
	}
	return steps * s.Cfg.SyncCyclesPerStep
}

// launch starts j on the granted cores; finish returns them.
func (s *HybridScheduler) launch(j *Job, cores []*platform.Core, boost bool) {
	j.Started = s.K.Now()
	j.Width = len(cores)
	j.Boosted = boost
	if boost {
		for _, c := range cores {
			c.Boost()
		}
		s.stats.Boosts++
	}
	// Cores already run at their (possibly boosted) frequency here.
	per := j.WorkCycles/int64(len(cores)) + s.syncCycles(len(cores))
	j.cores, j.dur = cores, cores[0].Cycles(per)
	s.K.ScheduleH(j.dur, s, j.ID<<fireBits|fireFinish)
}

// finish completes parallel job j, frees its cores and grants them on.
func (s *HybridScheduler) finish(j *Job) {
	s.stats.BusyTime += sim.Time(int64(j.dur) * int64(len(j.cores)))
	if j.Boosted {
		for _, c := range j.cores {
			c.Unboost()
		}
	}
	s.ssFree = append(s.ssFree, j.cores...)
	s.complete(j)
	s.dispatchParallel()
}

func (s *HybridScheduler) complete(j *Job) {
	j.Finished = s.K.Now()
	if j.Deadline != 0 && j.Finished > j.Deadline {
		j.Missed = true
		s.stats.Missed++
		if lat := j.Finished - j.Deadline; lat > s.stats.MaxLateness {
			s.stats.MaxLateness = lat
		}
	}
	s.stats.Completed++
	s.done = append(s.done, j)
}

// Done returns the completed jobs in completion order.
func (s *HybridScheduler) Done() []*Job { return s.done }

// Stats returns the aggregate statistics; AvgTurnMs is derived here.
func (s *HybridScheduler) Stats() Stats {
	st := s.stats
	if len(s.done) > 0 {
		var sum sim.Time
		for _, j := range s.done {
			sum += j.Finished - j.Arrival
		}
		st.AvgTurnMs = (sum.Seconds() * 1000) / float64(len(s.done))
	}
	return st
}

// Utilization returns busy core-time divided by wall-time × cores.
func (s *HybridScheduler) Utilization() float64 {
	elapsed := s.K.Now()
	if elapsed == 0 {
		return 0
	}
	total := float64(int64(elapsed)) * float64(len(s.P.Cores))
	return float64(int64(s.stats.BusyTime)) / total
}
