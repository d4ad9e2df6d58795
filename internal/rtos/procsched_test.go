package rtos

import (
	"fmt"
	"sort"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// The goroutine scheduler the state machine replaced, kept as the
// differential oracle of TestHybridMatchesProcOracle and the /proc
// variant of BenchmarkHybrid: every time-shared core is a sim.Proc
// that parks on a sim.Signal until work arrives, and the space-shared
// side schedules closures. The only edits are:
//   - the names;
//   - a first-dispatch flag, so Job.Started is set once (the original
//     tested Started == 0, and a job first dispatched at t=0 had
//     Started rewritten by every later slice);
//   - the enqueue sequence that breaks EDF ties lives in a map here:
//     Job no longer carries it, because the state machine inserts each
//     job behind every job due no later.

// procHybrid implements the reactive time-/space-shared policy.
type procHybrid struct {
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
	qseq  map[*Job]int
}

// newProcHybrid builds a scheduler over the platform's cores: cores with
// SpaceShared=true form the gang pool; the rest are time-shared. At
// least one core must exist in each pool; if the platform has no
// time-shared cores, the first space-shared core is reassigned.
func newProcHybrid(k *sim.Kernel, p *platform.Platform, cfg Config) *procHybrid {
	s := &procHybrid{K: k, P: p, Cfg: cfg, tsWake: k.NewSignal(), qseq: map[*Job]int{}}
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
func (s *procHybrid) Submit(j *Job) {
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
		s.qseq[j] = s.qctr
		s.qctr++
		s.ssWait = append(s.ssWait, j)
		s.sortEDF(s.ssWait)
		s.K.Schedule(0, s.dispatchParallel)
	}
}

// sortEDF orders by deadline (earliest first; best-effort last),
// breaking ties by arrival then ID for determinism.
func (s *procHybrid) sortEDF(jobs []*Job) {
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
		return s.qseq[jobs[a]] < s.qseq[jobs[b]]
	})
}

// enqueueTS appends to the time-shared ready queue with a fresh
// rotation sequence.
func (s *procHybrid) enqueueTS(j *Job) {
	s.qseq[j] = s.qctr
	s.qctr++
	s.tsReady = append(s.tsReady, j)
	s.sortEDF(s.tsReady)
}

// runTimeShared is the per-core dispatcher loop: EDF with quantum
// slicing, context-switch overhead charged on every dispatch.
func (s *procHybrid) runTimeShared(c *platform.Core) {
	proc := s.K.Spawn(fmt.Sprintf("ts-%s", c.Name), func(p *sim.Proc) {
		for {
			for len(s.tsReady) == 0 {
				s.tsWake.Wait(p)
			}
			j := s.tsReady[0]
			s.tsReady = s.tsReady[1:]
			if !j.dispatched {
				j.dispatched = true
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
func (s *procHybrid) Close() {
	for _, p := range s.tsProcs {
		p.Kill()
	}
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
func (s *procHybrid) dispatchParallel() {
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
func (s *procHybrid) chooseGrant(j *Job) (int, bool) {
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
func (s *procHybrid) predictedDur(j *Job, cores []*platform.Core, boost bool) sim.Time {
	w := int64(len(cores))
	per := j.WorkCycles/w + s.syncCycles(len(cores))
	hz := cores[0].Hz()
	if boost {
		hz = cores[0].Levels[len(cores[0].Levels)-1]
	}
	return sim.Time(per * (int64(sim.Second) / hz))
}

func (s *procHybrid) syncCycles(w int) int64 {
	steps := int64(0)
	for n := 1; n < w; n *= 2 {
		steps++
	}
	return steps * s.Cfg.SyncCyclesPerStep
}

// launch runs j on the granted cores and returns them when done.
func (s *procHybrid) launch(j *Job, cores []*platform.Core, boost bool) {
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

func (s *procHybrid) complete(j *Job) {
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
func (s *procHybrid) Done() []*Job { return s.done }

// Stats returns the aggregate statistics; AvgTurnMs is derived here.
func (s *procHybrid) Stats() Stats {
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
func (s *procHybrid) Utilization() float64 {
	elapsed := s.K.Now()
	if elapsed == 0 {
		return 0
	}
	total := float64(int64(elapsed)) * float64(len(s.P.Cores))
	return float64(int64(s.stats.BusyTime)) / total
}
