package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// span is one timed call into a layer, kept in memory and summarized
// when the run ends.
type span struct {
	name   string
	parent int // index into tracer.spans; -1 for a root
	start  time.Duration
	dur    time.Duration
}

// tracer records spans relative to its epoch.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	d := time.Since(t.epoch) - t.spans[i].start
	t.spans[i].dur = d
	return d
}

// add records an already-timed span and returns its index.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.epoch), dur: d})
	return len(t.spans) - 1
}

// spanTotal is one span name's count, total and self time: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another (a farm worker posts results while
// it evaluates), so covered time is the union of their intervals.
type spanTotal struct {
	count       int
	total, self time.Duration
}

func (t *tracer) totals() map[string]*spanTotal {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range t.spans {
		st, ok := out[s.name]
		if !ok {
			st = &spanTotal{}
			out[s.name] = st
		}
		st.count++
		st.total += s.dur
		st.self += s.dur - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	lo, hi := parent.start, parent.start+parent.dur
	var sum time.Duration
	cur := lo
	for _, k := range kids {
		a, b := max(k.start, cur), min(k.start+k.dur, hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// total is the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}

// summary renders the per-name span table written at the end of a
// traced run.
func (t *tracer) summary() []string {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("span %-22s %8s %12s %12s", "name", "count", "total_s", "self_s")}
	for _, n := range names {
		st := tot[n]
		lines = append(lines, fmt.Sprintf("span %-22s %8d %12.6f %12.6f", n, st.count, st.total.Seconds(), st.self.Seconds()))
	}
	return lines
}

// sweepTrace is one traced in-process pass: every point evaluated on
// one dse.EvalContext with a span around each public call.
type sweepTrace struct {
	rep     rep
	points  []dse.Point
	results []dse.Result
	evals   []time.Duration
	obs     dse.EvalObs
	wall    time.Duration // spec parse to last result
	parked  int           // goroutines the pass left running
}

// tracedSweep runs the spec once, evaluating and encoding point by
// point with the program's EvalObs instruments attached.
func tracedSweep(spec string, seed uint64, tr *tracer) (*sweepTrace, error) {
	st := &sweepTrace{obs: dse.NewEvalObs(obs.NewRegistry())}
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	root := tr.begin("run", -1)
	sp := tr.begin("dse.expand", root)
	points, h, err := expand(spec, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	fh, err := newFileHash(h)
	if err != nil {
		return nil, err
	}
	ec := dse.NewEvalContext()
	ec.SetObs(st.obs)
	chk := checker{n: len(points)}
	st.points = points
	st.results = make([]dse.Result, len(points))
	st.evals = make([]time.Duration, len(points))
	t1 := time.Now()
	for i, p := range points {
		sp := tr.begin("dse.evaluate."+p.Fidelity, root)
		r := ec.Evaluate(p)
		st.evals[i] = tr.end(sp)
		sp = tr.begin("dse.encode", root)
		err := dse.WriteResult(fh, r)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encoding results: %w", err)
		}
		st.results[i] = r
		chk.add(r)
	}
	t2 := time.Now()
	tr.end(root)
	st.wall = t2.Sub(t0)
	st.parked = runtime.NumGoroutine() - goroutines
	st.rep = rep{setup: t1.Sub(t0), run: t2.Sub(t1), points: len(points), failed: chk.finish(), sha: hexSum(fh), logMk: chk.logMk, nMk: chk.nMk}
	return st, nil
}

// vpCost measures what vp refinement costs. With vp points in the
// sweep, each is evaluated again with Fidelity set to mvp: both take
// the same mapping path, so the difference is the refinement, and the
// mvp twin's record is the point's task-level result. Without vp
// points, up to vpSamples mvp points are evaluated at both fidelities.
// Returns the refinement time, the vp/mvp cost ratio and the twins by
// point index.
func vpCost(st *sweepTrace, tr *tracer) (time.Duration, float64, map[int]dse.Result) {
	const vpSamples = 64
	ec := dse.NewEvalContext()
	twins := map[int]dse.Result{}
	root := tr.begin("vp_cost", -1)
	defer tr.end(root)
	var refine, vpTime, mvpTime time.Duration
	for i, p := range st.points {
		if p.Fidelity != "vp" {
			continue
		}
		q := p
		q.Fidelity, q.Quantum = "mvp", 0
		sp := tr.begin("dse.evaluate.mvp_twin", root)
		twins[i] = ec.Evaluate(q)
		d := tr.end(sp)
		refine += st.evals[i] - d
		vpTime += st.evals[i]
		mvpTime += d
	}
	if len(twins) > 0 {
		return refine, ratio(vpTime.Seconds(), mvpTime.Seconds()), twins
	}
	var mvp []int
	for i, p := range st.points {
		if p.Fidelity == "mvp" && st.results[i].Err == "" {
			mvp = append(mvp, i)
		}
	}
	step := max(1, len(mvp)/vpSamples)
	for j := 0; j < len(mvp); j += step {
		p := st.points[mvp[j]]
		ec.Evaluate(p) // warm the graph cache for both timings
		sp := tr.begin("dse.evaluate.mvp_sample", root)
		ec.Evaluate(p)
		dm := tr.end(sp)
		q := p
		q.Fidelity, q.Quantum = "vp", 64
		sp = tr.begin("dse.evaluate.vp_sample", root)
		r := ec.Evaluate(q)
		dv := tr.end(sp)
		if r.Err == "" {
			mvpTime += dm
			vpTime += dv
		}
	}
	return 0, ratio(vpTime.Seconds(), mvpTime.Seconds()), nil
}

// tracedRun is the per-layer split, on the run's first input: it
// alternates untraced and traced passes for the measuring time (their
// throughput ratio is the tracing overhead), then splits one traced
// pass's host time by layer with a task-level replay of every point.
func tracedRun(w workloadDef, measure time.Duration, dir string) (report, error) {
	rpt := report{correct: true}
	var ref string
	if w.farm {
		var err error
		if ref, err = referenceSHA(w.spec, w.seed); err != nil {
			return rpt, err
		}
	}
	tr := newTracer()
	var ratios []float64
	var last *sweepTrace
	var ft *farmTrace
	var farmRun rep
	shas := map[string]bool{}
	start := time.Now()
	for len(ratios) == 0 || time.Since(start) < measure {
		plain, err := pass(w, w.seed, dir)
		if err != nil {
			return rpt, err
		}
		traced := plain
		if w.farm {
			// The first traced farm pass also measures how long the
			// workers take to exit on their own after completion.
			first := ft == nil
			var t *farmTrace
			traced, t, err = farmRep(w.spec, w.seed, dir, farmOpts{traced: true, waitExit: first})
			if first {
				ft, farmRun = t, traced
			}
		} else {
			tr = newTracer()
			last, err = tracedSweep(w.spec, w.seed, tr)
			if last != nil {
				traced = last.rep
			}
		}
		if err != nil {
			return rpt, err
		}
		for _, r := range []rep{plain, traced} {
			rpt.attempted += r.points
			rpt.failed += r.failed
			shas[r.sha] = true
		}
		ratios = append(ratios, ratio(traced.pointsPerS(), plain.pointsPerS()))
	}
	if w.farm {
		// The farm's evaluations run inside its workers; the layer split
		// of the same points comes from one in-process traced pass.
		var err error
		if last, err = tracedSweep(w.spec, w.seed, tr); err != nil {
			return rpt, err
		}
		rpt.attempted += last.rep.points
		rpt.failed += last.rep.failed
		shas[last.rep.sha] = true
	}
	refine, costRatio, twins := vpCost(last, tr)
	rp := newReplayer(tr)
	mismatches, replayed := 0, 0
	for i, p := range last.points {
		want := last.results[i]
		if tw, ok := twins[i]; ok {
			want = tw
		}
		if p.Fidelity == "rtos" {
			continue
		}
		replayed++
		mk, events, err := rp.replay(p)
		if err != nil || mk != want.Metrics.Makespan || events != want.Metrics.SimEvents {
			mismatches++
		}
	}
	var expands []float64
	for i := 0; i < 5; i++ {
		d, err := sweepSetup(w.spec, w.seed)
		if err != nil {
			return rpt, err
		}
		expands = append(expands, d.Seconds()*1e3)
	}
	expansions := 1.0
	if w.farm {
		expansions = 1 + farmWorkers // the coordinator and every worker
	}

	rpt.note("workload %s seed %d: %d untraced/traced pass pairs, %d points", w.name, w.seed, len(ratios), len(last.points))
	rpt.note("result_sha256 %s", last.rep.sha)
	rpt.check("points once, in order, no Err", rpt.failed == 0)
	rpt.check("result_sha256 repeats", len(shas) == 1)
	if w.farm {
		rpt.note("reference_sha256 %s", ref)
		rpt.check("WriteFinal equals dse.Engine", shas[ref] && len(shas) == 1)
	}
	rpt.note("replayed %d task-level points, %d mismatches", replayed, mismatches)
	rpt.check("replay reproduces makespan", mismatches == 0)
	schedules := float64(last.obs.Search.Schedules.Value())
	rpt.check("replay schedules equal EvalObs", float64(rp.search.Schedules.Value()) == schedules)

	// Per-fidelity evaluation time, percentiles and EstCost agreement.
	evalByFid := map[string]time.Duration{}
	var evalUS, est []float64
	var noc, nocWait, memN, memWait, vpEvents, issInstr float64
	for i, p := range last.points {
		evalByFid[p.Fidelity] += last.evals[i]
		evalUS = append(evalUS, float64(last.evals[i].Nanoseconds())/1e3)
		est = append(est, dse.EstCost(p))
		m := last.results[i].Metrics
		noc += float64(m.NoCTransfers)
		nocWait += float64(m.NoCWaitPS) / 1e6
		memN += float64(m.MemTransfers)
		memWait += float64(m.MemWaitPS) / 1e6
		if p.Fidelity == "vp" {
			vpEvents += float64(m.SimEvents)
			issInstr += float64(m.VPInstr)
		}
	}
	o := last.obs
	latCount := o.LatMVP.Count() + o.LatPipe.Count() + o.LatVP.Count() + o.LatCal.Count() + o.LatJobs.Count()
	n := float64(len(last.points))
	graphBuild := tr.total("workload.graph_build")
	platBuild := tr.total("platform.build")
	search := tr.total("mapping.search")
	execute := tr.total("mapping.execute")
	encode := tr.total("dse.encode")
	attributed := tr.total("dse.expand") + graphBuild + platBuild + search + execute + refine + evalByFid["rtos"] + encode
	unattributed := last.wall - attributed
	wall := last.wall

	var leaseRTT, resultsRTT []float64
	var posts, wire float64
	var retry time.Duration
	var overhead float64
	if w.farm {
		// One root span per worker covers the farm's run, first lease to
		// Server.Done; its children are the worker's evaluations and
		// coordinator round trips, and its self time is what neither
		// accounts for.
		var roots [farmWorkers]int
		for i := range roots {
			roots[i] = tr.add("farm.worker", -1, ft.start, ft.done.Sub(ft.start))
			for _, e := range ft.evals[i] {
				tr.add("farm.evaluate", roots[i], e.start, e.dur)
			}
		}
		for _, c := range ft.calls {
			if !c.start.Before(ft.done) {
				continue // the lagging worker's polls after completion
			}
			tr.add("coord"+c.path, roots[c.worker], c.start, c.dur)
			wire += float64(c.bytes)
			retry += c.retry
			switch c.path {
			case "/lease":
				leaseRTT = append(leaseRTT, float64(c.dur.Nanoseconds())/1e3)
			case "/results":
				resultsRTT = append(resultsRTT, float64(c.dur.Nanoseconds())/1e3)
				posts++
			}
		}
		wall = farmWorkers * farmRun.run
		overhead = ratio((wall-ft.evalTime).Seconds()*1e6, float64(farmRun.points))
		unattributed = tr.totals()["farm.worker"].self
	}
	rpt.notes = append(rpt.notes, tr.summary()...)

	if ft == nil {
		ft = &farmTrace{} // coord metrics read 0 off the farm
	}
	refineS := refine.Seconds()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	rpt.metrics = []metric{
		{"dse.expand_ms", median(expands) * expansions, "ms"},
		{"dse.eval_s.mvp", evalByFid["mvp"].Seconds(), "s"},
		{"dse.eval_s.pipe", evalByFid["pipe"].Seconds(), "s"},
		{"dse.eval_s.vp", evalByFid["vp"].Seconds(), "s"},
		{"dse.eval_s.rtos", evalByFid["rtos"].Seconds(), "s"},
		{"dse.eval_us_p50", quantile(evalUS, 0.5), "us"},
		{"dse.eval_us_p98", quantile(evalUS, 0.98), "us"},
		{"dse.encode_us_per_point", ratio(us(encode), n), "us"},
		{"dse.graph_cache_hit_ratio", ratio(float64(o.GraphHits.Value()), float64(o.GraphHits.Value()+o.GraphMisses.Value())), "ratio"},
		{"dse.vp_pool_hit_ratio", ratio(float64(o.VPHits.Value()), float64(o.VPHits.Value()+o.VPMisses.Value())), "ratio"},
		{"dse.estcost_spearman", spearman(est, evalUS), "ratio"},
		{"dse.vp_mvp_cost_ratio", costRatio, "ratio"},
		{"dse.obs_latency_gap", float64(o.Points.Value() - latCount), "count"},
		{"dse.parked_goroutines", float64(last.parked), "count"},
		{"workload.graph_build_ms", graphBuild.Seconds() * 1e3, "ms"},
		{"platform.build_us_per_point", ratio(us(platBuild), float64(replayed)), "us"},
		{"mapping.search_s", search.Seconds(), "s"},
		{"mapping.schedules", schedules, "count"},
		{"mapping.anneal_moves", float64(o.Search.AnnealMoves.Value()), "count"},
		{"mapping.anneal_accept_ratio", ratio(float64(o.Search.AnnealAccepts.Value()), float64(o.Search.AnnealMoves.Value())), "ratio"},
		{"mapping.ns_per_schedule", ratio(float64(search.Nanoseconds()), float64(rp.search.Schedules.Value())), "ns"},
		{"mapping.execute_s", execute.Seconds(), "s"},
		{"sim.events", float64(rp.events), "count"},
		{"sim.ns_per_event", ratio(float64(execute.Nanoseconds()), float64(rp.events)), "ns"},
		{"noc.transfers", noc, "count"},
		{"noc.wait_us", nocWait, "sim_us"},
		{"mem.transfers", memN, "count"},
		{"mem.wait_us", memWait, "sim_us"},
		{"vp.refine_s", refineS, "s"},
		{"vp.events", vpEvents, "count"},
		{"iss.instr", issInstr, "count"},
		{"iss.minstr_per_s", ratio(issInstr/1e6, refineS), "Minstr/s"},
		{"coord.lease_rtt_us_p50", median(leaseRTT), "us"},
		{"coord.results_rtt_us_p50", median(resultsRTT), "us"},
		{"coord.results_posts", posts, "count"},
		{"coord.wire_bytes_per_point", ratio(wire, float64(farmRun.points)), "B"},
		{"coord.duplicate_ratio", ratio(ft.dups, ft.accepted+ft.dups), "ratio"},
		{"coord.overhead_us_per_point", overhead, "us"},
		{"coord.retry_wait_s", retry.Seconds(), "s"},
		{"coord.worker_exit_lag_s", ft.exitLag.Seconds(), "s"},
		{"coord.finalize_ms", ft.finalize.Seconds() * 1e3, "ms"},
		{"trace.overhead_ratio", median(ratios), "ratio"},
		{"trace.unattributed_s", unattributed.Seconds(), "s"},
		{"trace.unattributed_ratio", ratio(unattributed.Seconds(), wall.Seconds()), "ratio"},
	}
	return rpt, nil
}
