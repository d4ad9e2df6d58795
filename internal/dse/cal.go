package dse

import (
	"fmt"
	"math"
	"strings"

	"mpsockit/internal/mapping"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// Calibration (fid=cal:K) closes the loop between the cheap
// task-level estimator and the instruction-level virtual platform:
// per (platform, workload) group, K probe mappings are executed at
// task level and re-measured on the vp, per-PE-class WCET scale
// factors are fitted to the paired samples by least squares through
// the origin, and every group member's bottleneck compute is rescaled
// by its class's factor. Probes are stamped into each point at sweep
// expansion (Point.CalProbes), so the fit is a pure function of the
// point itself — any worker or lease recomputes the identical factors,
// which is what keeps distributed cal sweeps byte-identical.

// calEntry is one group's fitted calibration: per-class scale
// factors, the pooled fallback factor, the fit residual, and each
// probe's vp-refined makespan (reused verbatim when a group member is
// itself a probe).
type calEntry struct {
	scale    map[platform.PEClass]float64
	global   float64
	rms      float64
	n        int
	measured []sim.Time
}

// scaleFor returns the class's fitted factor, falling back to the
// pooled fit for classes no probe bottlenecked on.
func (e *calEntry) scaleFor(class platform.PEClass) float64 {
	if s, ok := e.scale[class]; ok {
		return s
	}
	return e.global
}

// calKey is a cal point's group fit identity: platform, workload
// instance, probe quantum and the full probe list. Everything the fit
// depends on and nothing else, so group members hit one cache entry
// and differently-probed groups can never alias.
func calKey(p Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s/%d/%d|q%d", p.Plat.String(), p.Workload, p.N, p.WorkloadSeed, p.Quantum)
	for _, a := range p.Apps {
		fmt.Fprintf(&b, "|a:%s/%d/%d", a.Kind, a.N, a.Seed)
	}
	for _, pr := range p.CalProbes {
		fmt.Fprintf(&b, "|p:%s/%d", pr.Heur, pr.Seed)
	}
	return b.String()
}

// probeIndex returns the point's index among its own probes, or -1
// when the point's mapping was not probed.
func (p Point) probeIndex() int {
	for i, pr := range p.CalProbes {
		if pr.Heur == p.Heuristic && pr.Seed == p.Seed {
			return i
		}
	}
	return -1
}

// bottleneckPE returns the busiest PE (ties to the lowest index) and
// its busy time, or (-1, 0) when nothing computed.
func bottleneckPE(stats mapping.ExecStats) (int, sim.Time) {
	pe, best := -1, sim.Time(0)
	for i, b := range stats.PEBusy {
		if b > best {
			pe, best = i, b
		}
	}
	return pe, best
}

// calibrate rescales the point's task-level makespan by its group's
// fitted factor for the bottleneck PE class and stamps the audit
// metrics (factor, residual, sample count). A point that is one of
// its group's probes takes its vp measurement verbatim — so cal with
// probes covering the whole group ranks exactly as vp fidelity.
func (c *EvalContext) calibrate(p Point, plat *platform.Platform, stats mapping.ExecStats, m *Metrics, units int) error {
	if len(p.CalProbes) == 0 {
		return fmt.Errorf("dse: cal point %d has no probes", p.ID)
	}
	// stats.PEBusy is executor scratch, which the probes of a fit
	// overwrite: read the bottleneck first.
	pe, maxBusy := bottleneckPE(stats)
	fit, err := c.calFit(p)
	if err != nil {
		return err
	}
	m.CalRMS = fit.rms
	m.CalSamples = fit.n
	if pe < 0 {
		return nil // no compute, nothing to rescale
	}
	scale := fit.scaleFor(plat.Cores[pe].Class)
	m.CalScale = scale
	if i := p.probeIndex(); i >= 0 {
		m.Makespan = fit.measured[i]
	} else {
		m.Makespan = stats.Makespan - maxBusy + sim.Time(scale*float64(maxBusy))
	}
	if m.Makespan > 0 {
		m.ThroughputHz = float64(units) / m.Makespan.Seconds()
	}
	return nil
}

// calFit returns the point's group calibration, computing and caching
// it on first sight: each probe mapping is scheduled and executed at
// task level, its bottleneck compute re-measured by vp refinement,
// and per-class scale factors fitted to the (task-level busy,
// vp-measured compute) pairs by least squares through the origin.
func (c *EvalContext) calFit(p Point) (*calEntry, error) {
	key := calKey(p)
	if e, ok := c.cals[key]; ok {
		c.obs.CalHits.Inc()
		return e, nil
	}
	c.obs.CalMisses.Inc()
	type sample struct {
		class platform.PEClass
		x, y  float64
	}
	var samples []sample
	e := &calEntry{scale: map[platform.PEClass]float64{}, global: 1}
	g, spans, _, err := c.pointGraph(p)
	if err != nil {
		return nil, err
	}
	for _, pr := range p.CalProbes {
		heur, err := mapping.ParseHeuristic(pr.Heur)
		if err != nil {
			return nil, err
		}
		// A probe reruns the point's platform, reset, on the point's
		// kernel: the caller has read its own execution into its
		// metrics already, and Evaluate's absorb counts the probes'
		// kernel events with the point's.
		plat, _, err := c.platform(reuseKernel(&c.k), p.Plat)
		if err != nil {
			return nil, err
		}
		run, err := c.mapAndExecute(g, spans, plat, mapping.Options{Heuristic: heur, Seed: pr.Seed}, "mvp", 1)
		if err != nil {
			return nil, err
		}
		stats := run.stats
		refined, _, _, err := c.vpRefine(p, stats)
		if err != nil {
			return nil, err
		}
		e.measured = append(e.measured, refined)
		if pe, maxBusy := bottleneckPE(stats); pe >= 0 {
			samples = append(samples, sample{
				class: plat.Cores[pe].Class,
				x:     float64(maxBusy),
				// The probe's vp-measured compute is the refinement
				// minus the task-level communication slack it carried
				// through unchanged.
				y: float64(refined - (stats.Makespan - maxBusy)),
			})
		}
	}
	e.n = len(samples)
	var gx2, gxy float64
	sums := map[platform.PEClass][2]float64{}
	for _, s := range samples {
		a := sums[s.class]
		a[0] += s.x * s.x
		a[1] += s.x * s.y
		sums[s.class] = a
		gx2 += s.x * s.x
		gxy += s.x * s.y
	}
	if gx2 > 0 {
		e.global = gxy / gx2
	}
	for class, a := range sums {
		if a[0] > 0 {
			e.scale[class] = a[1] / a[0]
		}
	}
	if len(samples) > 0 {
		var se float64
		for _, s := range samples {
			d := s.y - e.scaleFor(s.class)*s.x
			se += d * d
		}
		e.rms = math.Sqrt(se / float64(len(samples)))
	}
	store(c.cals, key, e)
	return e, nil
}
