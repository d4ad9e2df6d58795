package dse

import (
	"fmt"
	"slices"
	"strings"

	"mpsockit/internal/mapping"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// EvalContext is a per-worker evaluation context: it owns the reused
// simulation kernels, the last platform built, the workload-graph
// prototypes, and the mapping scratch that successive design points
// share while one worker drains its slice of a sweep. Point evaluation
// is deterministic per point (everything is derived from the point's
// own seeds), so reuse cannot leak state between points: a reset
// kernel is observably identical to a fresh one (sim.Kernel.Reset), a
// reused platform is reset to its state when built (platEntry), graph
// prototypes are immutable once built, and the mapping evaluator and
// executor rebind per point. The vp
// refinement is closed-form arithmetic (runLoops), so no virtual
// platform is built or kept. The sweep byte-identity tests hold
// exactly that — any worker count, fresh or reused context, same
// bytes.
//
// An EvalContext is not safe for concurrent use; Engine.Run gives
// each worker its own.
type EvalContext struct {
	// k runs mapped executions and the RTOS scheduler, both kernel
	// event handlers that leave nothing behind, so one kernel is Reset
	// between points for the context's whole life.
	k *sim.Kernel
	// plat is the last platform built on k, reset and reused while
	// consecutive points share its spec — expansion is platform-major,
	// so they mostly do.
	plat platEntry
	// me is the reusable mapping scratch, rebound per point; ex the
	// reusable execution scratch of the mapped run.
	me mapping.Evaluator
	ex mapping.Executor
	// graphs caches built workload task graphs: every point of a
	// sweep that shares (workload, N, seed) maps the identical
	// prototype, so the graph and its adjacency view are built once
	// per worker instead of once per point.
	graphs map[graphKey]*taskgraph.Graph
	// multis caches multi-app scenarios (union graph, spans,
	// worst-case load) by their full identity — workload token,
	// scenario seed and every constituent's instance seed (multiKey) —
	// so hand-built points that share a token but not app seeds can
	// never alias.
	multis map[string]*multiEntry
	// cals caches per-group calibration fits (fid=cal) by calKey: the
	// probe measurements and least-squares factors are computed once
	// per (platform, workload, probes) group per worker; any worker
	// recomputes identical values, so distribution never changes bytes.
	cals map[string]*calEntry

	// obs is the optional instrumentation handle (SetObs); the zero
	// value is inert. kBase is k's stat baseline at the last absorb.
	obs   EvalObs
	kBase sim.KernelStats
}

// platEntry is a built platform kept for reuse: the spec it was built
// for, its area proxy, and each core as buildPlatform left it (DVFS
// level pinned as nominal, no switches counted). A point may boost
// cores, count switches and move cores between the RTOS pools; reuse
// restores every core from its snapshot and resets the fabric and the
// memory model, which leaves the platform as buildPlatform returns it.
type platEntry struct {
	spec  PlatSpec
	plat  *platform.Platform
	area  float64
	cores []platform.Core
}

// platform returns a platform of spec on the context's kernel k and
// its area proxy: the context's last platform, reset, when it was
// built for an equal spec, a fresh buildPlatform otherwise.
func (c *EvalContext) platform(k *sim.Kernel, spec PlatSpec) (*platform.Platform, float64, error) {
	e := &c.plat
	if e.plat != nil && e.spec.Equal(spec) {
		for i, core := range e.plat.Cores {
			*core = e.cores[i]
		}
		e.plat.Fabric.Reset()
		if e.plat.Mem != nil {
			e.plat.Mem.Reset()
		}
		return e.plat, e.area, nil
	}
	plat, area, err := buildPlatform(k, spec)
	if err != nil {
		return nil, 0, err
	}
	spec.Mix = slices.Clone(spec.Mix)
	e.spec, e.plat, e.area = spec, plat, area
	e.cores = e.cores[:0]
	for _, core := range plat.Cores {
		e.cores = append(e.cores, *core)
	}
	return plat, area, nil
}

type graphKey struct {
	kind string
	n    int
	seed uint64
}

// multiEntry is one cached multi-app scenario: the union task graph
// of all constituent applications (immutable, view materialized), the
// per-application task-ID spans inside it, and the concurrency
// analysis's worst-case load.
type multiEntry struct {
	graph     *taskgraph.Graph
	spans     []taskgraph.Span
	worstLoad float64
}

// NewEvalContext returns an empty context; kernels and caches
// materialize on first use.
func NewEvalContext() *EvalContext {
	return &EvalContext{
		graphs: map[graphKey]*taskgraph.Graph{},
		multis: map[string]*multiEntry{},
		cals:   map[string]*calEntry{},
	}
}

// SetObs attaches the instrumentation handle; the mapping search
// counters are forwarded to the context's evaluator. Attaching (or
// not) never changes evaluation results.
func (c *EvalContext) SetObs(o EvalObs) {
	c.obs = o
	c.me.Obs = o.Search
}

// reuseKernel returns *kp reset for the next point, creating it on
// first use. No evaluation path spawns a process, so the reset never
// meets one (sim.Kernel.Reset panics if it does).
func reuseKernel(kp **sim.Kernel) *sim.Kernel {
	if *kp == nil {
		*kp = sim.NewKernel()
	} else {
		(*kp).Reset()
	}
	return *kp
}

// graph returns the point's workload task graph prototype, building
// and caching it on first sight of (workload, N, seed).
func (c *EvalContext) graph(p Point) (*taskgraph.Graph, error) {
	key := graphKey{kind: p.Workload, n: p.N, seed: p.WorkloadSeed}
	if g, ok := c.graphs[key]; ok {
		c.obs.GraphHits.Inc()
		return g, nil
	}
	c.obs.GraphMisses.Inc()
	g, err := buildGraph(p)
	if err != nil {
		return nil, err
	}
	// Materialize the adjacency view now: the prototype is immutable
	// from here on, and every mapping of it starts from the view.
	g.View()
	c.graphs[key] = g
	return g, nil
}

// multiKey is a multi-app scenario's full cache identity: the token,
// the scenario seed, and each constituent's (kind, N, seed).
func multiKey(p Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d", p.Workload, p.WorkloadSeed)
	for _, a := range p.Apps {
		fmt.Fprintf(&b, "|%s/%d/%d", a.Kind, a.N, a.Seed)
	}
	return b.String()
}

// multiScenario returns the point's cached multi-app scenario,
// building it on first sight: per-app graphs come from the prototype
// cache (shared with single-workload points of the same instance),
// the concurrency graph marks all apps concurrent, and the union
// graph of the scenario is composed and its view materialized once.
func (c *EvalContext) multiScenario(p Point) (*multiEntry, error) {
	key := multiKey(p)
	if mu, ok := c.multis[key]; ok {
		c.obs.MultiHits.Inc()
		return mu, nil
	}
	c.obs.MultiMisses.Inc()
	apps := make([]workload.AppSpec, len(p.Apps))
	graphs := make([]*taskgraph.Graph, len(p.Apps))
	for i, a := range p.Apps {
		apps[i] = workload.AppSpec{Kind: a.Kind, N: a.N, Seed: a.Seed}
		g, err := c.graph(Point{Workload: a.Kind, N: a.N, WorkloadSeed: a.Seed})
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	cg, err := workload.MultiScenario(apps, graphs)
	if err != nil {
		return nil, err
	}
	worst, _, _ := workload.WorstLoad(cg)
	union, spans := taskgraph.Union(p.Workload, graphs...)
	union.View()
	mu := &multiEntry{graph: union, spans: spans, worstLoad: worst}
	c.multis[key] = mu
	return mu, nil
}
