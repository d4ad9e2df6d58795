// Package osip models the OSIP study of the paper's section IV: a
// dedicated task-dispatching ASIP ("operating system ASIP") versus an
// additional RISC core performing scheduling in software. The claim
// under test (experiment E7): OSIP lowers task-switching overhead and
// thereby "enables higher PE utilization via more fine-grained tasks".
//
// The model: worker PEs repeatedly fetch work items from a central
// dispatcher. The dispatcher serializes requests (it is one piece of
// hardware) and its per-decision service time depends on its
// implementation: a software scheduler on a RISC core walks ready
// queues (cost grows with backlog and has a large constant), while
// the OSIP services requests in near-constant short time. Worker PEs
// also pay a context-switch cost per dispatched task, again much
// smaller with OSIP's hardware-managed contexts.
package osip

import (
	"fmt"

	"mpsockit/internal/sim"
)

// Kind selects the dispatcher implementation.
type Kind int

// Dispatcher kinds.
const (
	RISCSoftware Kind = iota
	OSIP
)

// Config describes one dispatch experiment.
type Config struct {
	Kind Kind
	// Workers is the number of processing elements served.
	Workers int
	// Tasks is the total number of work items.
	Tasks int
	// TaskCycles is the useful work per item (granularity knob).
	TaskCycles int64
	// WorkerHz is the PE clock.
	WorkerHz int64

	// DispatchBase/DispatchPerPending are the dispatcher's service
	// time in dispatcher cycles; the software scheduler pays the
	// per-pending term for queue walks, OSIP's hardware queues do not.
	DispatchBase       int64
	DispatchPerPending int64
	// CtxSwitchCycles is the per-dispatch overhead on the worker.
	CtxSwitchCycles int64
	// DispatcherHz is the dispatcher clock.
	DispatcherHz int64
}

// DefaultConfig returns the calibrated parameters for each kind.
// Numbers follow the relative magnitudes reported for OSIP-style
// dispatchers: ~10x cheaper scheduling decisions and ~5x cheaper
// context switches.
func DefaultConfig(kind Kind, workers int, tasks int, taskCycles int64) Config {
	c := Config{
		Kind: kind, Workers: workers, Tasks: tasks, TaskCycles: taskCycles,
		WorkerHz: 400_000_000, DispatcherHz: 400_000_000,
	}
	switch kind {
	case RISCSoftware:
		c.DispatchBase = 800
		c.DispatchPerPending = 60
		c.CtxSwitchCycles = 500
	case OSIP:
		c.DispatchBase = 80
		c.DispatchPerPending = 0
		c.CtxSwitchCycles = 100
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Cfg      Config
	Makespan sim.Time
	// BusyTime is worker time spent on useful task cycles.
	BusyTime sim.Time
	// DispatchWait is worker time spent blocked on the dispatcher
	// (queueing + service).
	DispatchWait sim.Time
	// Dispatches counts served requests.
	Dispatches int
	// Events is the kernel's dispatched-event count, the determinism
	// fingerprint compared across repeated runs.
	Events uint64
}

// Utilization is useful work over total worker time.
func (r *Result) Utilization() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(int64(r.BusyTime)) / (float64(int64(r.Makespan)) * float64(r.Cfg.Workers))
}

// Simulate runs the dispatch model to completion.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 || cfg.Tasks <= 0 || cfg.TaskCycles <= 0 {
		return nil, fmt.Errorf("osip: workers, tasks and task cycles must be positive")
	}
	if cfg.WorkerHz <= 0 || cfg.DispatcherHz <= 0 {
		return nil, fmt.Errorf("osip: clocks must be positive")
	}
	k := sim.NewKernel()
	res := &Result{Cfg: cfg}
	dispatcher := k.NewResource("dispatcher", 1)
	remaining := cfg.Tasks
	workerCycle := int64(sim.Second) / cfg.WorkerHz
	dispCycle := int64(sim.Second) / cfg.DispatcherHz

	for w := 0; w < cfg.Workers; w++ {
		k.Spawn(fmt.Sprintf("pe%d", w), func(p *sim.Proc) {
			for {
				t0 := p.Now()
				dispatcher.Acquire(p)
				if remaining == 0 {
					dispatcher.Release()
					return
				}
				remaining--
				res.Dispatches++
				// Service time: queue walk grows with backlog in the
				// software scheduler.
				service := cfg.DispatchBase + cfg.DispatchPerPending*int64(remaining%64)
				p.Delay(sim.Time(service * dispCycle))
				dispatcher.Release()
				// Context switch on the worker.
				p.Delay(sim.Time(cfg.CtxSwitchCycles * workerCycle))
				res.DispatchWait += p.Now() - t0
				// Useful work.
				work := sim.Time(cfg.TaskCycles * workerCycle)
				p.Delay(work)
				res.BusyTime += work
				if p.Now() > res.Makespan {
					res.Makespan = p.Now()
				}
			}
		})
	}
	k.Run()
	res.Events = k.Executed
	return res, nil
}

// Compare runs both dispatcher kinds on the same workload and returns
// (RISC result, OSIP result).
func Compare(workers, tasks int, taskCycles int64) (*Result, *Result, error) {
	r1, err := Simulate(DefaultConfig(RISCSoftware, workers, tasks, taskCycles))
	if err != nil {
		return nil, nil, err
	}
	r2, err := Simulate(DefaultConfig(OSIP, workers, tasks, taskCycles))
	if err != nil {
		return nil, nil, err
	}
	return r1, r2, nil
}
