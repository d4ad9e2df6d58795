// Package dse is the parallel design-space exploration engine: it
// sweeps the cross product of platform configurations (core counts,
// PE-class mixes, DVFS operating points, interconnect topologies) ×
// mapping heuristics × workloads × simulation fidelities, evaluating
// every design point on its own sim.Kernel in a worker pool. This is
// the loop the paper's tooling exists to serve — MAPS maps task
// graphs "taking into account real-time requirements and preferred PE
// classes", and fast abstract simulation (the MVP, PR 1's temporal
// decoupling) is what makes evaluating thousands of candidate designs
// cheap enough to do before committing to hardware.
//
// Design points are embarrassingly parallel: each worker owns its
// kernel, fabric and platform (an EvalContext), so workers share no
// mutable state and the pool scales with GOMAXPROCS. Results stream
// in point order regardless of completion order, which makes a sweep's
// JSONL output byte-reproducible for a given seed and resumable from a
// checkpoint prefix.
//
// # Distribution
//
// A sweep spreads over processes and hosts through the internal/coord
// farm: a coordinator leases contiguous point ranges, sized on
// EstCost, to workers that evaluate them on a local Engine. Every
// per-point seed derives from the sweep seed alone, so a range
// evaluated on any host yields result lines that are a literal
// substring of the standalone output.
//
// Every sweep file starts with a Header line pinning the schema
// version, spec, seed, expanded-point hash and (for a worker's lease
// checkpoint) the covered ID range. ReadLog is the one reader of that
// format, with one damage policy: a torn final line is dropped and
// reported, damage with data after it is an error. Header.Check is
// the one identity check: resume checks a file's header against the
// sweep it continues — a mismatch is a loud error, not a silent
// restart — and MergeShards checks every file's header against its
// own local Expand of the spec, refuses torn files, and feeds the
// lines into one Accumulator: duplicate point IDs must carry
// identical bytes, and the union must cover the full sweep. A merged
// file is byte-identical to a standalone run.
//
// Front quality is quantified per workload: GroupedFront extracts
// per-workload Pareto fronts over latency, energy proxy and area
// proxy, and Hypervolumes reports each front's exact hypervolume
// indicator against a deterministic per-group reference point, so
// sweeps (full versus heuristic-restricted, merged versus standalone)
// compare by a number rather than by front membership counts.
//
// # Sweep grammar
//
// ParseSweep accepts a preset name ("smoke", "default") or a
// ';'-separated dimension list. In EBNF:
//
//	spec     = preset | dims ;
//	preset   = "smoke" | "default" ;
//	dims     = dim , { ";" , dim } ;
//	dim      = key , "=" , value , { "," , value } ;
//	key      = "plat" | "fab" | "dvfs" | "wl" | "heur" | "fid"
//	         | "mem" ;
//
//	plat     = "homog" int | "mpcore" int | "celllike" int
//	         | "wireless" | mix ;
//	mix      = group , { "+" , group } ;
//	group    = int , "x" , class , [ "@" , int (* MHz *) ] ;
//	class    = "risc" | "dsp" | "vliw" | "acc" | "ctrl" ;
//
//	fab      = "mesh" | "bus" ;
//	dvfs     = int (* operating-point index, 0 = lowest *) ;
//
//	wl       = app | "jobs" int | "multi:" , app , { "+" , app } ;
//	app      = "jpeg" | "h264" | "carradio" | "synth" int ;
//
//	heur     = "list" | "anneal" | "exhaustive" ;
//	fid      = "mvp" | "pipe" int (* 1..1024 *) | "vp" int
//	         | "cal" ":" int (* 1..32 *) ;
//	mem      = "ideal" | "bank" ":" int "x" int | "bw" ":" int ;
//
// A mix platform token ("2xrisc+4xdsp@3200") builds the listed core
// groups in order at class-default clocks and memories unless "@MHz"
// overrides the clock; a multi workload token
// ("multi:jpeg+carradio+synth8") evaluates the listed applications as
// one concurrent usage scenario — the union of their task graphs is
// mapped and executed with every application active at once, and the
// concurrency analysis reports the scenario's worst-case load. A
// "cal:K" fidelity token scores points at task-level (mvp) speed with
// calibrated makespans: per (platform, workload) group, up to K probe
// mappings are measured on the instruction-level virtual platform,
// per-PE-class WCET scale factors are fitted to the paired
// (task-level estimate, vp measurement) samples by least squares, and
// every point's bottleneck compute is rescaled by its class's factor
// (probe points reuse their vp measurement verbatim, so K covering
// the whole group degenerates to vp-identical ranking).
// A "mem=" dimension crosses memory-subsystem contention models into
// the sweep: "ideal" is the uncontended default (byte-identical to
// omitting the dimension), "bank:BxC" queues cross-PE payloads on B
// destination-hashed bank reservations behind C shared DMA channels,
// and "bw:G" serializes them through one DMA engine budgeted at G
// bytes/ns. The model charges its service time on both the mapping
// estimator and the simulated execute path; jobs workloads carry the
// token but are unaffected (the RTOS does no task transfers).
// FuzzParseSweep holds parse→render→parse to the identity on expanded
// points, rendering with the tests' canonical Sweep.Spec.
package dse

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// PlatSpec names one platform configuration of the sweep.
type PlatSpec struct {
	// Kind is homog, mpcore, celllike, wireless or custom (an
	// arbitrary core mix).
	Kind string `json:"kind"`
	// Cores is the core count for homog/mpcore and the DSP (SPE)
	// count for celllike; wireless is fixed at 6, custom sums Mix.
	Cores int `json:"cores,omitempty"`
	// Mix is the parsed core-mix spec of a custom platform
	// ("2xrisc+4xdsp"), empty for the named kinds.
	Mix []platform.MixGroup `json:"mix,omitempty"`
	// Fabric is mesh or bus.
	Fabric string `json:"fabric"`
	// DVFS is the frequency level index applied to every core before
	// mapping (0 = lowest). Levels are clamped per core.
	DVFS int `json:"dvfs"`
	// Mem is the memory-subsystem contention token ("bank:4x2",
	// "bw:8"). Empty is the ideal memory — mem=ideal canonicalizes to
	// empty at expansion, so points without a mem= dimension keep
	// their exact pre-axis JSON encoding (and spec hash).
	Mem string `json:"mem,omitempty"`
}

// CoreCount returns the number of PEs the spec builds.
func (s PlatSpec) CoreCount() int {
	switch s.Kind {
	case "wireless":
		return 6
	case "celllike":
		return s.Cores + 1
	case "custom":
		return platform.MixCoreCount(s.Mix)
	default:
		return s.Cores
	}
}

// Token renders the spec's platform-dimension token — the value that
// parses back to this spec via the plat= grammar ("homog8",
// "wireless", "2xrisc+4xdsp").
func (s PlatSpec) Token() string {
	switch s.Kind {
	case "wireless":
		return "wireless"
	case "custom":
		return platform.FormatMix(s.Mix)
	default:
		return s.Kind + strconv.Itoa(s.Cores)
	}
}

// String renders the spec as the compact "kind/fabric/dN" token used
// in tables and logs, with "/mem" appended when a memory model is
// attached. Calibration caches key on this string, so cal groups
// never mix measurements across memory models.
func (s PlatSpec) String() string {
	str := s.Token() + "/" + s.Fabric + "/d" + strconv.Itoa(s.DVFS)
	if s.Mem != "" {
		str += "/" + s.Mem
	}
	return str
}

// Equal reports whether s and o are the same spec, field for field.
// Like reflect.DeepEqual it tells a nil Mix from an empty one.
func (s PlatSpec) Equal(o PlatSpec) bool {
	return s.Kind == o.Kind && s.Cores == o.Cores && exactEqual(s.Mix, o.Mix) &&
		s.Fabric == o.Fabric && s.DVFS == o.DVFS && s.Mem == o.Mem
}

// Equal reports whether p and o are the same point, field for field:
// exactly reflect.DeepEqual(p, o), nil-versus-empty slices included,
// without reflection.
func (p Point) Equal(o Point) bool {
	return p.ID == o.ID && p.Seed == o.Seed && p.Plat.Equal(o.Plat) &&
		p.Workload == o.Workload && p.N == o.N && p.WorkloadSeed == o.WorkloadSeed &&
		exactEqual(p.Apps, o.Apps) && p.Heuristic == o.Heuristic && p.Fidelity == o.Fidelity &&
		p.Iterations == o.Iterations && p.Quantum == o.Quantum && exactEqual(p.CalProbes, o.CalProbes)
}

// exactEqual is slices.Equal that, like reflect.DeepEqual, tells a nil
// slice from an empty one.
func exactEqual[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// AppRef names one application of a multi-app design point: the
// workload kind, its size, and the seed generating its instance. The
// seed is derived exactly as for the corresponding single-workload
// token, so a multi point's constituents are the same instances the
// single points evaluate.
type AppRef struct {
	// Kind is a task-graph workload: jpeg, h264, carradio or synth.
	Kind string `json:"kind"`
	// N sizes parameterized workloads (synth task count).
	N int `json:"n,omitempty"`
	// Seed generates the app's workload instance.
	Seed uint64 `json:"seed"`
}

// Point is one design point: everything needed to evaluate it,
// serializable so sweeps checkpoint and resume.
type Point struct {
	ID int `json:"id"`
	// Seed drives the point's mapping heuristic (annealing moves).
	Seed uint64   `json:"seed"`
	Plat PlatSpec `json:"plat"`
	// Workload is jpeg, h264, carradio, synth, jobs, or a multi:a+b
	// token naming a multi-application scenario.
	Workload string `json:"wl"`
	// N sizes parameterized workloads: task count for synth, job
	// count for jobs.
	N int `json:"n,omitempty"`
	// WorkloadSeed generates the workload instance; shared by every
	// point of the sweep that uses the same workload, so heuristics
	// and platforms are compared on identical inputs.
	WorkloadSeed uint64 `json:"wl_seed"`
	// Apps lists the constituent applications of a multi workload, in
	// token order; empty for single workloads.
	Apps []AppRef `json:"apps,omitempty"`
	// Heuristic is list, anneal or exhaustive ("-" for jobs, which
	// the RTOS schedules online).
	Heuristic string `json:"heur"`
	// Fidelity is mvp (one-shot task-level mapping.Execute), pipe
	// (pipelined task-level), vp (instruction-level virtual platform
	// with temporal decoupling), cal (task-level with WCET scale
	// factors calibrated against vp probe measurements) or rtos
	// (online scheduler).
	Fidelity string `json:"fid"`
	// Iterations is the pipelined frame count (pipe fidelity).
	Iterations int `json:"iters,omitempty"`
	// Quantum is the temporal-decoupling quantum in instructions per
	// kernel event (vp and cal fidelities).
	Quantum int `json:"quantum,omitempty"`
	// CalProbes lists the probe mappings whose vp measurements
	// calibrate this point's makespan (cal fidelity only), in group
	// heuristic order. Stamped at expansion, so a point carries its
	// group's full probe identity and any lease computes the identical
	// fit without seeing the rest of the sweep.
	CalProbes []CalProbe `json:"cal_probes,omitempty"`
}

// CalProbe names one calibration probe of a cal point's (platform,
// workload) group: a sibling mapping identified by its heuristic and
// mapping seed. The probe's mapping is executed at task level and
// re-measured on the virtual platform; the pair calibrates the
// group's WCET scale factors.
type CalProbe struct {
	Heur string `json:"heur"`
	Seed uint64 `json:"seed"`
}

// Metrics is the measurement record of one evaluated design point.
// Latency, energy and area feed the Pareto extraction; the rest are
// diagnostics (utilization, interconnect pressure, simulation cost).
type Metrics struct {
	Makespan     sim.Time `json:"makespan_ps"`
	ThroughputHz float64  `json:"throughput_hz"`
	// BusyPS is total compute time summed over PEs.
	BusyPS   int64   `json:"busy_ps"`
	UtilMean float64 `json:"util_mean"`
	UtilMax  float64 `json:"util_max"`
	// Energy is the proxy: per-PE busy-seconds weighted by f³ (DVFS
	// voltage scaling) plus an idle-leakage term, plus a per-switch
	// DVFS transition charge.
	Energy float64 `json:"energy"`
	// Area is the proxy: PE-class weights plus interconnect area.
	Area         float64 `json:"area"`
	NoCTransfers uint64  `json:"noc_transfers"`
	NoCWaitPS    int64   `json:"noc_wait_ps"`
	// MemTransfers and MemWaitPS are the memory-subsystem service
	// count and queue wait of the run (mem= points only; zero — and
	// omitted from JSON — when the point has no memory model).
	MemTransfers uint64 `json:"mem_transfers,omitempty"`
	MemWaitPS    int64  `json:"mem_wait_ps,omitempty"`
	FreqSwitches uint64 `json:"freq_switches,omitempty"`
	// SimEvents counts kernel events dispatched evaluating the point
	// (the abstraction-level cost measure of experiment E13).
	SimEvents uint64 `json:"sim_events"`
	// VPInstr counts ISS instructions retired (vp fidelity only).
	VPInstr uint64 `json:"vp_instr,omitempty"`
	// MissRate is the deadline miss fraction (jobs workload only).
	MissRate float64 `json:"miss_rate,omitempty"`
	// WorstLoadCPS is the worst-case concurrent compute demand in
	// cycles per second over the scenario's maximal concurrency
	// cliques (multi workloads with two or more apps only).
	WorstLoadCPS float64 `json:"worst_load_cps,omitempty"`
	// AppMakespanPS gives each constituent application's own makespan
	// under concurrent execution, in Apps order (multi workloads at
	// the task-level mvp fidelity only — a vp-refined headline
	// makespan has no consistent task-level split).
	AppMakespanPS []int64 `json:"app_makespan_ps,omitempty"`
	// CalScale is the fitted WCET scale factor applied to the point's
	// bottleneck PE class (cal fidelity only).
	CalScale float64 `json:"cal_scale,omitempty"`
	// CalRMS is the calibration fit's root-mean-square residual across
	// probe samples, in picoseconds (cal fidelity only) — the audit
	// number for how well the scaled task-level model tracks the vp.
	CalRMS float64 `json:"cal_rms,omitempty"`
	// CalSamples is the number of probe measurements behind the fit
	// (cal fidelity only).
	CalSamples int `json:"cal_samples,omitempty"`
}

// Result pairs a point with its metrics; Err records evaluation
// failures (e.g. an exhaustive search space overflow) without
// aborting the sweep.
type Result struct {
	Point   Point   `json:"point"`
	Metrics Metrics `json:"metrics"`
	Err     string  `json:"err,omitempty"`
}

// Engine runs sweeps over a pool of workers. It keeps its workers'
// EvalContexts across Run and RunContext calls, so kernels, platforms,
// graph prototypes and mapping scratch survive from one run to the
// next — a farm worker that evaluates lease after lease on one Engine
// pays for them once, as a standalone sweep does. That is safe
// because every EvalContext cache is keyed on content. An Engine
// reused across runs must not run two of them concurrently.
type Engine struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// OnResult, when set, receives every result in point order (not
	// completion order) — results stream as soon as the ordered
	// prefix is complete, so a consumer writing JSONL produces
	// identical bytes for any worker count.
	OnResult func(Result)
	// Obs, when non-zero, is attached to every worker's EvalContext
	// (shared instruments are atomic, so one handle serves the pool).
	Obs EvalObs
	// Tracer, when set, records one "eval" span per point, on a
	// Perfetto row per worker, categorized by fidelity. Telemetry is a
	// side channel: results are byte-identical with or without it.
	Tracer *obs.Tracer

	// ctxs holds one EvalContext per pool worker, grown on demand and
	// kept for the Engine's life.
	ctxs []*EvalContext
	// results is RunContext's result array, grown on demand and reused
	// by the next run.
	results []Result
}

// twins reports whether p and o are fidelity twins: the same mapping
// problem — platform, workload instance, heuristic and mapping seed —
// at possibly different fidelities. Sweep.Points gives a group's mvp,
// vp and cal points one seed and lists them consecutively.
func twins(p, o Point) bool {
	return p.Seed == o.Seed && p.Heuristic == o.Heuristic && p.Plat.Equal(o.Plat) &&
		p.Workload == o.Workload && p.N == o.N && p.WorkloadSeed == o.WorkloadSeed &&
		slices.Equal(p.Apps, o.Apps)
}

// Run evaluates every point and returns the results in input order.
// The slice is the Engine's scratch, as for RunContext.
func (e *Engine) Run(points []Point) []Result {
	return e.RunContext(context.Background(), points)
}

// RunContext evaluates points until the context is cancelled. In-flight
// evaluations finish (a design point is never torn mid-evaluation); no
// new points are started after cancellation. A run of consecutive
// fidelity twins (twins) goes to one worker, which evaluates it in
// order, so the run's mapping is searched once whatever the worker
// count. The returned slice is
// the completed contiguous prefix — exactly the results that were
// released to OnResult — so a caller writing JSONL has a clean cut
// point: flushing what OnResult saw yields a valid resumable
// checkpoint with no torn trailing line.
//
// The returned slice is the Engine's scratch, like Evaluator.Map's
// assignment: it stays valid until the next Run or RunContext on this
// Engine, which overwrites it. A caller that keeps results past that
// copies them (append(dst, res...)).
func (e *Engine) RunContext(ctx context.Context, points []Point) []Result {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if cap(e.results) < len(points) {
		e.results = make([]Result, len(points))
	}
	results := e.results[:len(points)]
	if len(points) == 0 {
		return results
	}
	for len(e.ctxs) < workers {
		e.ctxs = append(e.ctxs, NewEvalContext())
	}
	// jobs carries runs [lo, hi) of point indexes.
	jobs := make(chan [2]int)
	completed := make(chan int, len(points))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One context per worker: kernels, workload prototypes and
			// mapping scratch are reused across the points this worker
			// drains, and across runs, with no cross-worker sharing.
			ec := e.ctxs[w]
			ec.SetObs(e.Obs)
			for run := range jobs {
				for idx := run[0]; idx < run[1]; idx++ {
					if idx > run[0] && ctx.Err() != nil {
						break
					}
					if e.Tracer != nil {
						t0 := time.Now()
						results[idx] = ec.Evaluate(points[idx])
						e.Tracer.Span("eval", points[idx].Fidelity, w, t0, time.Since(t0),
							obs.Arg{Key: "point", Val: int64(points[idx].ID)})
					} else {
						results[idx] = ec.Evaluate(points[idx])
					}
					completed <- idx
				}
			}
		}(w)
	}
	// Collector: release results to OnResult in point order. next is
	// read after collWG.Wait, which orders the access after the
	// collector's final write.
	var collWG sync.WaitGroup
	collWG.Add(1)
	next := 0
	go func() {
		defer collWG.Done()
		ready := make(map[int]bool, workers)
		for idx := range completed {
			ready[idx] = true
			for ready[next] {
				delete(ready, next)
				if e.OnResult != nil {
					e.OnResult(results[next])
				}
				next++
			}
		}
	}()
dispatch:
	for lo := 0; lo < len(points); {
		hi := lo + 1
		for hi < len(points) && twins(points[lo], points[hi]) {
			hi++
		}
		select {
		case jobs <- [2]int{lo, hi}:
		case <-ctx.Done():
			break dispatch
		}
		lo = hi
	}
	close(jobs)
	wg.Wait()
	close(completed)
	collWG.Wait()
	return results[:next:next]
}
