package dse

import (
	"bytes"
	"math/rand"
	"testing"
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
