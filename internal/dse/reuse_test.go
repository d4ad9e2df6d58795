package dse

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpsockit/internal/mapping"
	"mpsockit/internal/obs"
	"mpsockit/internal/taskgraph"
)

// reuseSpec crosses everything a reused platform must forget between
// points: rtos bags (DVFS boosts, cores moved into the space-shared
// pool), contended memory, mesh and bus, a custom mix beside named
// kinds, every DVFS level, multi-app scenarios, and the pipe and cal
// fidelities.
const reuseSpec = "plat=homog4,wireless,2xrisc+1xdsp+1xvliw;fab=mesh,bus;dvfs=0,1,2;" +
	"mem=ideal,bank:4x2,bw:8;wl=jpeg,jobs32,multi:jpeg+synth8;heur=list,anneal;fid=mvp,pipe4,cal:1"

// TestPlatformReuseMatchesFresh: one EvalContext evaluates a shuffled
// stream of points — runs of one platform spec broken up at random,
// with repeats — and every result line equals a fresh-context
// Evaluate's byte for byte (through WriteResult). The stream reuses
// the context's platform for most points, including right after an
// rtos point boosted its cores, and rebuilds it for the rest.
func TestPlatformReuseMatchesFresh(t *testing.T) {
	points := expandSweep(t, reuseSpec, 3)
	r := rand.New(rand.NewSource(20261018))
	// Runs of equal specs, in expansion (platform-major) order.
	var groups [][]Point
	for i, p := range points {
		if i == 0 || !p.Plat.Equal(points[i-1].Plat) {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], p)
	}
	r.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var order []Point
	for _, g := range groups {
		r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		// Half the time the group's rtos bag runs first, so the points
		// after it inherit the cores it boosted.
		if r.Intn(2) == 0 {
			for i, p := range g {
				if p.Fidelity == "rtos" {
					g[0], g[i] = g[i], g[0]
				}
			}
		}
		order = append(order, g...)
	}
	for i := range order {
		if r.Intn(8) == 0 {
			j := r.Intn(len(order))
			order[i], order[j] = order[j], order[i]
		}
	}
	for n := len(order) / 10; n > 0; n-- {
		i := r.Intn(len(order))
		order = append(order[:i+1], order[i:]...) // evaluate point i twice in a row
	}

	line := func(res Result) []byte {
		t.Helper()
		if res.Err != "" {
			t.Fatalf("point %d failed: %s", res.Point.ID, res.Err)
		}
		var b bytes.Buffer
		if err := WriteResult(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	c := NewEvalContext()
	var hits, misses, afterBoost int
	var prevBoosted bool
	for _, p := range order {
		prev := c.plat.plat
		got := line(c.Evaluate(p))
		if want := line(Evaluate(p)); !bytes.Equal(got, want) {
			t.Fatalf("point %d on a reused context:\n got %s\nwant %s", p.ID, got, want)
		}
		if prev != nil && c.plat.plat == prev {
			hits++
			if prevBoosted {
				afterBoost++
			}
		} else {
			misses++
		}
		prevBoosted = p.Fidelity == "rtos" && bytes.Contains(got, []byte(`"freq_switches"`))
	}
	t.Logf("%d points: %d platform reuses (%d right after a boosting rtos point), %d builds", len(order), hits, afterBoost, misses)
	if hits < len(order)/2 || misses < len(groups) || afterBoost == 0 {
		t.Fatalf("%d reuses (%d after a boost) and %d builds over %d points: the stream does not exercise reuse", hits, afterBoost, misses, len(order))
	}
}

// execReuseSpec crosses what an execution reuse must tell apart: list
// and anneal twins at every one-shot fidelity (mvp, vp64, cal:1 and
// cal:2; an anneal cal:1 point is not its group's probe, so a fit its
// evaluation computes runs the list probe after the point's own
// execution), a multi-app scenario's spans, pipe4 beside pipe8 of one
// mapping, bank and bw memory on the same cores, and rtos bags that
// run on the platform between twins.
const execReuseSpec = "plat=homog4,2xrisc+1xdsp;mem=bank:4x2,bw:8;wl=synth8,multi:jpeg+synth8,jobs8;" +
	"heur=list,anneal;fid=mvp,vp64,cal:1,cal:2,pipe4,pipe8"

// TestExecReuseMatchesFresh: one EvalContext, which reuses the last
// execution of a mode when a point runs the same graph, spans,
// platform, assignment and units (execEntry), writes every result line
// byte-identical to a fresh context's Evaluate, through WriteResult,
// in expansion order, in reverse, in shuffled orders with repeats, and
// in a stream that follows each point with its siblings: the other
// memory model on the same cores, the other pipe depth, an rtos bag on
// the same platform, and the point again. The streams must reuse
// executions at every fidelity and hold runs whose key differs from
// the last run's in the platform alone and in the units alone.
func TestExecReuseMatchesFresh(t *testing.T) {
	points := expandSweep(t, execReuseSpec, 9)
	line := func(res Result) string {
		t.Helper()
		if res.Err != "" {
			t.Fatalf("point %d failed: %s", res.Point.ID, res.Err)
		}
		var b bytes.Buffer
		if err := WriteResult(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := make([]string, len(points))
	for i, p := range points {
		want[i] = line(Evaluate(p))
	}

	// sibling finds the sweep's point that differs from p only as edit
	// makes it differ.
	sibling := func(p Point, edit func(*Point)) (Point, bool) {
		q := p
		edit(&q)
		for _, s := range points {
			if s.Plat.Equal(q.Plat) && s.Workload == q.Workload && s.Heuristic == q.Heuristic &&
				s.Fidelity == q.Fidelity && s.Iterations == q.Iterations && s.Quantum == q.Quantum {
				return s, true
			}
		}
		return Point{}, false
	}
	var siblings []Point
	for _, p := range points {
		if p.Fidelity == "rtos" {
			continue
		}
		siblings = append(siblings, p)
		if q, ok := sibling(p, func(q *Point) {
			q.Plat.Mem = map[string]string{"bank:4x2": "bw:8", "bw:8": "bank:4x2"}[q.Plat.Mem]
		}); ok {
			siblings = append(siblings, q)
		}
		if p.Fidelity == "pipe" {
			if q, ok := sibling(p, func(q *Point) { q.Iterations = 12 - q.Iterations }); ok {
				siblings = append(siblings, q)
			}
		}
		if q, ok := sibling(p, func(q *Point) {
			q.Workload, q.Heuristic, q.Fidelity, q.Iterations, q.Quantum = "jobs", "-", "rtos", 0, 0
		}); ok {
			siblings = append(siblings, q)
		}
		siblings = append(siblings, p)
	}
	orders := map[string][]Point{"expansion": points, "reverse": slices.Clone(points), "siblings": siblings}
	slices.Reverse(orders["reverse"])
	for s := int64(1); s <= 3; s++ {
		r := rand.New(rand.NewSource(s))
		order := slices.Clone(points)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for n := len(order) / 5; n > 0; n-- {
			i := r.Intn(len(order))
			order = append(order[:i+1], order[i:]...)
		}
		orders[fmt.Sprintf("shuffled/%d", s)] = order
	}

	reusedBy := map[string]int{}
	var platOnly, unitsOnly int
	for name, order := range orders {
		c := NewEvalContext()
		o := NewEvalObs(obs.NewRegistry())
		c.SetObs(o)
		for i, p := range order {
			mode := 0
			if p.Fidelity == "pipe" {
				mode = 1
			}
			last := c.runs[mode]
			last.taskPE = slices.Clone(last.taskPE)
			before := o.ExecReused.Value()
			if got := line(c.Evaluate(p)); got != want[p.ID] {
				t.Fatalf("%s order, step %d (point %d, %s %s %s %s): reused context\n got %s\nwant %s",
					name, i, p.ID, p.Plat.Token(), p.Workload, p.Heuristic, p.Fidelity, got, want[p.ID])
			}
			if o.ExecReused.Value() > before {
				reusedBy[p.Fidelity]++
			} else if now := c.runs[mode]; p.Fidelity != "rtos" && p.Fidelity != "cal" && last.ok &&
				now.g == last.g && slices.Equal(now.taskPE, last.taskPE) && slices.Equal(now.spans, last.spans) {
				// Executed again although only the platform or the
				// units changed.
				if now.plat != last.plat && now.units == last.units {
					platOnly++
				}
				if now.plat == last.plat && now.units != last.units {
					unitsOnly++
				}
			}
		}
	}
	t.Logf("executions reused by fidelity %v; %d runs differed from the last in the platform only, %d in the units only", reusedBy, platOnly, unitsOnly)
	for _, fid := range []string{"mvp", "vp", "cal", "pipe"} {
		if reusedBy[fid] == 0 {
			t.Errorf("no %s point reused an execution", fid)
		}
	}
	if platOnly == 0 || unitsOnly == 0 {
		t.Errorf("%d platform-only and %d units-only key changes: the streams do not test the key", platOnly, unitsOnly)
	}

	// A sweep's union graph always comes with its spans; a run of the
	// same graph without them measures no application makespans.
	for _, p := range points {
		if len(p.Apps) < 2 || p.Fidelity != "mvp" {
			continue
		}
		c := NewEvalContext()
		g, spans, _, err := c.pointGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		opt := mapping.Options{Heuristic: mapping.List, Seed: p.Seed}
		for _, sp := range [][]taskgraph.Span{spans, nil, spans} {
			plat, _, err := c.platform(reuseKernel(&c.k), p.Plat)
			if err != nil {
				t.Fatal(err)
			}
			run, err := c.mapAndExecute(g, sp, plat, opt, "mvp", 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.appMk) != len(sp) {
				t.Fatalf("point %d run with %d spans measured %d app makespans", p.ID, len(sp), len(run.appMk))
			}
		}
		break
	}
}
