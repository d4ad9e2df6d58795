// Package dataflow implements cyclo-static dataflow (CSDF) graphs,
// the formal model behind the paper's section III (the NXP
// Hijdra/CoMPSoC line of work). It provides consistency analysis
// (repetition vectors), self-timed execution with back-pressure over
// bounded buffers, wait-free checks for timer-driven sources and
// sinks, and minimal buffer-capacity computation under a throughput
// constraint in the style of Wiggers et al. (RTAS 2007), the paper's
// reference [5].
package dataflow

import (
	"fmt"
	"math/big"
)

// Actor is a CSDF actor: execution alternates cyclically through
// Phases; phase p takes ExecTime[p] to fire.
type Actor struct {
	Name string
	// ExecTime per phase, in virtual time. All rate vectors on
	// adjacent edges must have the same length (the phase count).
	ExecTime []int64 // picoseconds; kept integral for exact analysis
	idx      int
}

// Phases returns the actor's phase count.
func (a *Actor) Phases() int { return len(a.ExecTime) }

// Edge is a buffered token channel. Prod[p] tokens appear on the
// buffer when the source completes its phase-p firing; Cons[p] tokens
// are claimed when the destination starts its phase-p firing.
type Edge struct {
	Name    string
	Src     *Actor
	Dst     *Actor
	Prod    []int // per src phase
	Cons    []int // per dst phase
	Initial int   // initial tokens
	idx     int
}

// sum returns the total tokens over one cyclo-static cycle.
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Graph is a CSDF graph.
type Graph struct {
	Name   string
	Actors []*Actor
	Edges  []*Edge
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddActor creates an actor with the given per-phase execution times.
func (g *Graph) AddActor(name string, execTime ...int64) *Actor {
	if len(execTime) == 0 {
		panic("dataflow: actor needs at least one phase")
	}
	for _, t := range execTime {
		if t < 0 {
			panic("dataflow: negative execution time")
		}
	}
	a := &Actor{Name: name, ExecTime: execTime, idx: len(g.Actors)}
	g.Actors = append(g.Actors, a)
	return a
}

// Connect adds an edge from src to dst. prod must have one entry per
// src phase and cons one per dst phase.
func (g *Graph) Connect(src, dst *Actor, prod, cons []int, initial int) *Edge {
	if len(prod) != src.Phases() {
		panic(fmt.Sprintf("dataflow: edge %s->%s prod has %d entries, src has %d phases",
			src.Name, dst.Name, len(prod), src.Phases()))
	}
	if len(cons) != dst.Phases() {
		panic(fmt.Sprintf("dataflow: edge %s->%s cons has %d entries, dst has %d phases",
			src.Name, dst.Name, len(cons), dst.Phases()))
	}
	e := &Edge{
		Name: src.Name + "->" + dst.Name,
		Src:  src, Dst: dst, Prod: prod, Cons: cons, Initial: initial,
		idx: len(g.Edges),
	}
	g.Edges = append(g.Edges, e)
	return e
}

// ConnectSDF adds a single-phase (SDF) edge with scalar rates,
// broadcasting the scalar across the actors' phases.
func (g *Graph) ConnectSDF(src, dst *Actor, prod, cons, initial int) *Edge {
	ps := make([]int, src.Phases())
	for i := range ps {
		ps[i] = prod
	}
	cs := make([]int, dst.Phases())
	for i := range cs {
		cs[i] = cons
	}
	return g.Connect(src, dst, ps, cs, initial)
}

// RepetitionVector solves the CSDF balance equations and returns, for
// each actor, the number of complete cyclo-static cycles per graph
// iteration (so actor a fires rv[a]*a.Phases() times per iteration).
// It returns an error for inconsistent graphs (which cannot execute
// in bounded memory) and for disconnected graphs.
func (g *Graph) RepetitionVector() ([]int, error) {
	n := len(g.Actors)
	if n == 0 {
		return nil, fmt.Errorf("dataflow: empty graph")
	}
	// q[i] as rationals; propagate q over edges via BFS.
	q := make([]*big.Rat, n)
	q[0] = big.NewRat(1, 1)
	queue := []int{0}
	adj := make(map[int][]*Edge)
	for _, e := range g.Edges {
		adj[e.Src.idx] = append(adj[e.Src.idx], e)
		adj[e.Dst.idx] = append(adj[e.Dst.idx], e)
	}
	visited := map[int]bool{0: true}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, e := range adj[i] {
			// Balance: q[src]*sum(Prod) == q[dst]*sum(Cons).
			sp, sc := sum(e.Prod), sum(e.Cons)
			if sp == 0 || sc == 0 {
				return nil, fmt.Errorf("dataflow: edge %s has zero total rate", e.Name)
			}
			var other int
			var ratio *big.Rat
			if e.Src.idx == i {
				other = e.Dst.idx
				ratio = new(big.Rat).Mul(q[i], big.NewRat(int64(sp), int64(sc)))
			} else {
				other = e.Src.idx
				ratio = new(big.Rat).Mul(q[i], big.NewRat(int64(sum(e.Cons)), int64(sum(e.Prod))))
			}
			if q[other] == nil {
				q[other] = ratio
				visited[other] = true
				queue = append(queue, other)
			} else if q[other].Cmp(ratio) != 0 {
				return nil, fmt.Errorf("dataflow: inconsistent rates at edge %s", e.Name)
			}
		}
	}
	for i := range q {
		if q[i] == nil {
			return nil, fmt.Errorf("dataflow: actor %s not connected", g.Actors[i].Name)
		}
	}
	// Scale to the smallest integer vector: multiply by LCM of
	// denominators, divide by GCD of numerators.
	lcm := big.NewInt(1)
	for _, r := range q {
		d := r.Denom()
		gg := new(big.Int).GCD(nil, nil, lcm, d)
		lcm.Div(new(big.Int).Mul(lcm, d), gg)
	}
	ints := make([]*big.Int, n)
	for i, r := range q {
		ints[i] = new(big.Int).Div(new(big.Int).Mul(r.Num(), lcm), r.Denom())
	}
	gcd := new(big.Int).Set(ints[0])
	for _, v := range ints[1:] {
		gcd.GCD(nil, nil, gcd, v)
	}
	out := make([]int, n)
	for i, v := range ints {
		out[i] = int(new(big.Int).Div(v, gcd).Int64())
	}
	return out, nil
}

// Validate checks structural sanity: rates non-negative, totals
// positive, consistency.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		for _, p := range e.Prod {
			if p < 0 {
				return fmt.Errorf("dataflow: negative production on %s", e.Name)
			}
		}
		for _, c := range e.Cons {
			if c < 0 {
				return fmt.Errorf("dataflow: negative consumption on %s", e.Name)
			}
		}
		if e.Initial < 0 {
			return fmt.Errorf("dataflow: negative initial tokens on %s", e.Name)
		}
	}
	_, err := g.RepetitionVector()
	return err
}
