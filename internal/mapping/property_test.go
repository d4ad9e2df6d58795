package mapping

import (
	"slices"
	"testing"
	"testing/quick"

	"mpsockit/internal/platform"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/xrand"
)

// randomDAG builds a task graph from fuzz bytes: edges always point
// from lower to higher IDs, so the graph is acyclic by construction.
func randomDAG(tasks []uint8, edges []uint16) *taskgraph.Graph {
	n := len(tasks)%6 + 2
	g := taskgraph.NewGraph("fuzz")
	for i := 0; i < n; i++ {
		cyc := int64(tasks[i%len(tasks)])*1000 + 1000
		g.AddTask(&taskgraph.Task{
			Name: "t",
			WCET: map[platform.PEClass]int64{
				platform.RISC: cyc,
				platform.DSP:  cyc/2 + 1,
				platform.VLIW: cyc + 500,
			},
		})
	}
	for _, e := range edges {
		from := int(e>>8) % n
		to := int(e&0xff) % n
		if from < to {
			g.Connect(g.Tasks[from], g.Tasks[to], int(e%512)+1, "")
		}
	}
	return g
}

// Property: every heuristic produces a schedule that passes Validate
// (no PE overlap, precedence respected) and a positive makespan, for
// arbitrary acyclic graphs.
func TestMappingValidityProperty(t *testing.T) {
	plat := wirelessPlat()
	f := func(tasks []uint8, edges []uint16) bool {
		if len(tasks) == 0 {
			return true
		}
		if len(edges) > 12 {
			edges = edges[:12]
		}
		g := randomDAG(tasks, edges)
		if g.Validate() != nil {
			return true // duplicate edges etc. — not the property under test
		}
		for _, h := range []Heuristic{List, Anneal} {
			a, err := Map(g, plat, Options{Heuristic: h, Seed: 1, Iterations: 100})
			if err != nil {
				return false
			}
			if a.Makespan <= 0 {
				return false
			}
			if a.Validate() != nil {
				return false
			}
		}
		// Throughput objective as well.
		a, err := Map(g, plat, Options{Objective: Throughput})
		if err != nil || a.Validate() != nil {
			return false
		}
		// Pipelined execution completes for any valid assignment.
		if _, err := ExecutePipelined(a, 3); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundAdmissible: the lower bound never exceeds an
// assignment's cost — the makespan of its static schedule, the load of
// its most-loaded core — for random capable assignments of random
// graphs on mesh and bus fabrics with ideal, bank and bw memory. It is
// positive, and computing it leaves the schedule a suffix resumes from
// (fq) as it was.
func TestLowerBoundAdmissible(t *testing.T) {
	plats := incPlatforms(t)
	var tight [2]int
	f := func(tasks []uint8, edges []uint16, seed uint64) bool {
		if len(tasks) == 0 {
			return true
		}
		if len(edges) > 16 {
			edges = edges[:16]
		}
		g := randomDAG(tasks, edges)
		if g.Validate() != nil {
			return true
		}
		plat := plats[int(seed%uint64(len(plats)))]
		ev := NewEvaluator(g, plat)
		rng := xrand.New(seed)
		assign := make([]int, len(g.Tasks))
		for id := range assign {
			cands := ev.Capable(id)
			if len(cands) == 0 {
				return true
			}
			assign[id] = cands[rng.Intn(len(cands))]
		}
		for _, obj := range []Objective{Makespan, Throughput} {
			cost := ev.objectiveCost(obj, assign)
			fq := slices.Clone(ev.fq)
			lb := ev.lowerBound(obj)
			if lb <= 0 || cost < lb {
				t.Logf("%s, objective %d: cost %v, lower bound %v", plat.Name, obj, cost, lb)
				return false
			}
			if !slices.Equal(fq, ev.fq) {
				t.Logf("lowerBound changed the kernel's finish times")
				return false
			}
			if cost == lb {
				tight[obj]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	t.Logf("assignments at the bound: %d makespan, %d throughput", tight[Makespan], tight[Throughput])
}
