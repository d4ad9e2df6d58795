package main

import (
	"fmt"

	"mpsockit/internal/dse"
	"mpsockit/internal/mapping"
	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// replayer re-runs a design point's task-level evaluation through the
// public functions of the layers below dse — workload graph, platform
// build, mapping search, task-level execution — with a span around
// each, so the traced run can split evaluation time by layer. Graphs
// are cached per workload instance like dse.EvalContext caches them.
type replayer struct {
	tr     *tracer
	k      *sim.Kernel
	graphs map[string]*replayGraph
	ev     mapping.Evaluator
	search mapping.SearchObs
	events uint64
}

type replayGraph struct {
	g     *taskgraph.Graph
	spans []taskgraph.Span
}

func newReplayer(tr *tracer) *replayer {
	r := obs.NewRegistry()
	rp := &replayer{tr: tr, graphs: map[string]*replayGraph{}, search: mapping.SearchObs{
		Schedules:     r.Counter("schedules", ""),
		CostEvals:     r.Counter("cost_evals", ""),
		AnnealMoves:   r.Counter("anneal_moves", ""),
		AnnealAccepts: r.Counter("anneal_accepts", ""),
		AnnealRejects: r.Counter("anneal_rejects", ""),
	}}
	rp.ev.Obs = rp.search
	return rp
}

// replay evaluates p at task level and returns the makespan and the
// kernel events executed. A vp point replays its task-level part.
func (rp *replayer) replay(p dse.Point) (sim.Time, uint64, error) {
	if len(p.Apps) == 1 {
		a := p.Apps[0]
		p.Workload, p.N, p.WorkloadSeed, p.Apps = a.Kind, a.N, a.Seed, nil
	}
	root := rp.tr.begin("replay", -1)
	defer rp.tr.end(root)

	sp := rp.tr.begin("platform.build", root)
	// Reuse the kernel across points as dse.EvalContext does: a reset
	// kernel is observably fresh, and one left with live processes is
	// replaced.
	if rp.k == nil || rp.k.LiveProcs() > 0 {
		rp.k = sim.NewKernel()
	} else {
		rp.k.Reset()
	}
	k := rp.k
	plat, err := buildPlatform(k, p.Plat)
	rp.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	g, err := rp.graph(p, root)
	if err != nil {
		return 0, 0, err
	}

	sp = rp.tr.begin("mapping.search", root)
	heur, err := mapping.ParseHeuristic(p.Heuristic)
	if err != nil {
		rp.tr.end(sp)
		return 0, 0, err
	}
	opt := mapping.Options{Heuristic: heur, Seed: p.Seed}
	units := 1
	if p.Fidelity == "pipe" {
		opt.Objective = mapping.Throughput
		units = p.Iterations
		if units <= 0 {
			units = 8
		}
	}
	rp.ev.Bind(g.g, plat)
	a, err := rp.ev.Map(opt)
	rp.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}

	sp = rp.tr.begin("mapping.execute", root)
	var stats mapping.ExecStats
	switch {
	case p.Fidelity == "pipe":
		stats, err = mapping.ExecutePipelined(a, units)
	case g.spans != nil:
		stats, _, err = mapping.ExecuteMulti(a, g.spans)
	default:
		stats, err = mapping.Execute(a)
	}
	rp.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	rp.events += k.Executed
	return stats.Makespan, k.Executed, nil
}

// graph returns the point's task graph, building it on first sight of
// its workload instance; a multi-app point gets the union graph.
func (rp *replayer) graph(p dse.Point, parent int) (*replayGraph, error) {
	key := fmt.Sprintf("%s/%d/%d", p.Workload, p.N, p.WorkloadSeed)
	for _, a := range p.Apps {
		key += fmt.Sprintf("|%s/%d/%d", a.Kind, a.N, a.Seed)
	}
	if g, ok := rp.graphs[key]; ok {
		return g, nil
	}
	sp := rp.tr.begin("workload.graph_build", parent)
	defer rp.tr.end(sp)
	var rg replayGraph
	if len(p.Apps) > 1 {
		apps := make([]*taskgraph.Graph, len(p.Apps))
		for i, a := range p.Apps {
			g, err := workload.AppTaskGraph(a.Kind, a.N, a.Seed)
			if err != nil {
				return nil, err
			}
			g.View()
			apps[i] = g
		}
		rg.g, rg.spans = taskgraph.Union(p.Workload, apps...)
	} else {
		g, err := workload.AppTaskGraph(p.Workload, p.N, p.WorkloadSeed)
		if err != nil {
			return nil, err
		}
		rg.g = g
	}
	rg.g.View()
	rp.graphs[key] = &rg
	return &rg, nil
}

// buildPlatform builds the spec's platform on k from the platform and
// noc constructors, pins every core at the swept DVFS level and
// attaches the memory model — the platform a dse design point
// evaluates on.
func buildPlatform(k *sim.Kernel, spec dse.PlatSpec) (*platform.Platform, error) {
	n := spec.CoreCount()
	var fabric platform.Fabric
	switch spec.Fabric {
	case "mesh":
		fabric = noc.MeshFor(k, n)
	case "bus":
		fabric = noc.DefaultBus(k)
	default:
		return nil, fmt.Errorf("unknown fabric %q", spec.Fabric)
	}
	var plat *platform.Platform
	switch spec.Kind {
	case "homog":
		plat = platform.NewHomogeneous(k, n, 1_000_000_000, fabric)
	case "mpcore":
		plat = platform.NewMPCoreLike(k, n, fabric)
	case "celllike":
		plat = platform.NewCellLike(k, spec.Cores, fabric)
	case "wireless":
		plat = platform.NewWirelessTerminal(k, fabric)
	case "custom":
		plat = platform.NewMix(k, spec.Mix, fabric)
	default:
		return nil, fmt.Errorf("unknown platform kind %q", spec.Kind)
	}
	for _, c := range plat.Cores {
		lvl := min(max(spec.DVFS, 0), len(c.Levels)-1)
		if err := c.SetLevel(lvl); err != nil {
			return nil, err
		}
		c.SetNominal()
		c.FreqSwitches = 0
	}
	if spec.Mem != "" {
		ms, err := mem.ParseSpec(spec.Mem)
		if err != nil {
			return nil, err
		}
		plat.Mem = ms.Build(plat.MemTiming())
	}
	return plat, nil
}
