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
	"fmt"
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

	// qseq orders jobs with equal deadlines: bumped on every enqueue
	// so preempted jobs rotate to the back of their class (round-robin
	// within one deadline).
	qseq int
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

// HybridScheduler implements the reactive time-/space-shared policy.
type HybridScheduler struct {
	K   *sim.Kernel
	P   *platform.Platform
	Cfg Config

	// time-shared side
	tsCores []*platform.Core
	tsReady []*Job // EDF-ordered
	tsWake  *sim.Signal
	tsProcs []*sim.Proc // the per-core dispatchers, for Close

	// space-shared side
	ssFree []*platform.Core
	ssWait []*Job // EDF-ordered

	done  []*Job
	stats Stats
	next  int
	qctr  int
}

// NewHybrid builds a scheduler over the platform's cores: cores with
// SpaceShared=true form the gang pool; the rest are time-shared. At
// least one core must exist in each pool; if the platform has no
// time-shared cores, the first space-shared core is reassigned.
func NewHybrid(k *sim.Kernel, p *platform.Platform, cfg Config) *HybridScheduler {
	s := &HybridScheduler{K: k, P: p, Cfg: cfg, tsWake: k.NewSignal()}
	for _, c := range p.Cores {
		if c.SpaceShared {
			s.ssFree = append(s.ssFree, c)
		} else {
			s.tsCores = append(s.tsCores, c)
		}
	}
	if len(s.tsCores) == 0 && len(s.ssFree) > 0 {
		s.tsCores = append(s.tsCores, s.ssFree[0])
		s.ssFree = s.ssFree[1:]
	}
	for _, c := range s.tsCores {
		s.runTimeShared(c)
	}
	return s
}

// Submit enqueues a job at the current virtual time.
func (s *HybridScheduler) Submit(j *Job) {
	j.ID = s.next
	s.next++
	j.Arrival = s.K.Now()
	switch j.Kind {
	case Sequential:
		s.enqueueTS(j)
		s.tsWake.Broadcast()
	case Parallel:
		if j.MaxWidth < 1 {
			j.MaxWidth = 1
		}
		j.qseq = s.qctr
		s.qctr++
		s.ssWait = append(s.ssWait, j)
		s.sortEDF(s.ssWait)
		s.K.Schedule(0, s.dispatchParallel)
	}
}

// sortEDF orders by deadline (earliest first; best-effort last),
// breaking ties by arrival then ID for determinism.
func (s *HybridScheduler) sortEDF(jobs []*Job) {
	sort.SliceStable(jobs, func(a, b int) bool {
		da, db := jobs[a].Deadline, jobs[b].Deadline
		if da == 0 {
			da = sim.Forever
		}
		if db == 0 {
			db = sim.Forever
		}
		if da != db {
			return da < db
		}
		return jobs[a].qseq < jobs[b].qseq
	})
}

// enqueueTS appends to the time-shared ready queue with a fresh
// rotation sequence.
func (s *HybridScheduler) enqueueTS(j *Job) {
	j.qseq = s.qctr
	s.qctr++
	s.tsReady = append(s.tsReady, j)
	s.sortEDF(s.tsReady)
}

// runTimeShared is the per-core dispatcher loop: EDF with quantum
// slicing, context-switch overhead charged on every dispatch.
func (s *HybridScheduler) runTimeShared(c *platform.Core) {
	proc := s.K.Spawn(fmt.Sprintf("ts-%s", c.Name), func(p *sim.Proc) {
		for {
			for len(s.tsReady) == 0 {
				s.tsWake.Wait(p)
			}
			j := s.tsReady[0]
			s.tsReady = s.tsReady[1:]
			if j.Started == 0 {
				j.Started = p.Now()
			}
			p.Delay(s.Cfg.CtxSwitch)
			slice := c.TimeToCycles(s.Cfg.Quantum)
			run := j.WorkCycles
			if run > slice {
				run = slice
			}
			dur := c.Cycles(run)
			p.Delay(dur)
			s.stats.BusyTime += dur
			j.WorkCycles -= run
			if j.WorkCycles <= 0 {
				s.complete(j)
			} else {
				s.enqueueTS(j)
			}
		}
	})
	s.tsProcs = append(s.tsProcs, proc)
}

// Close stops the time-shared dispatchers, which otherwise stay
// parked on the kernel forever waiting for work: each is killed and
// the kernel stepped until they have unwound. Events pending at the
// current instant may fire during the drain; nothing later does.
// Afterwards the scheduler leaves no live process on the kernel, so
// a kernel it was alone on can be Reset. Read the results first.
func (s *HybridScheduler) Close() {
	for _, p := range s.tsProcs {
		p.Kill()
	}
	s.K.Resume() // a Stop would stall the drain
	for _, p := range s.tsProcs {
		for !p.Dead() && s.K.Step() {
		}
	}
	s.tsProcs = nil
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
		s.ssWait = s.ssWait[1:]
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

// launch runs j on the granted cores and returns them when done.
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
	dur := cores[0].Cycles(per)
	s.K.Schedule(dur, func() {
		s.stats.BusyTime += sim.Time(int64(dur) * int64(len(cores)))
		if boost {
			for _, c := range cores {
				c.Unboost()
			}
		}
		s.ssFree = append(s.ssFree, cores...)
		s.complete(j)
		s.dispatchParallel()
	})
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
