package taskgraph

import (
	"fmt"

	"mpsockit/internal/platform"
)

// Adj is one adjacency record of a View: the neighbor task, the index
// of the Graph.Edges entry it came from, and the payload bytes. In the
// aggregated Preds/Succs views parallel edges between the same task
// pair are merged into a single record with summed Bytes (Edge keeps
// the first contributing edge index); in the per-edge InEdges/OutEdges
// views every Graph.Edges entry appears exactly once.
type Adj struct {
	Task  int
	Edge  int
	Bytes int
}

// View is an immutable adjacency snapshot of a Graph, built once and
// cached on the graph: CSR-style predecessor/successor lists with
// per-edge payload bytes, the memoized topological order, and a dense
// per-class WCET table. It exists so the mapping-search hot path
// (thousands of candidate evaluations per design point) never rescans
// Graph.Edges or allocates adjacency slices.
//
// A View is valid for the graph state it was built from; AddTask and
// Connect invalidate it, and the next Graph.View call rebuilds. All
// accessors return subslices of the view's backing arrays — callers
// must treat them as read-only. Concurrent readers of one View are
// safe; building (the first View call after a mutation) is not
// goroutine-safe, so materialize the view before sharing a graph
// across goroutines.
type View struct {
	g       *Graph
	version uint64

	// Aggregated adjacency (one record per distinct neighbor).
	predStart []int
	predAdj   []Adj
	succStart []int
	succAdj   []Adj

	// Per-edge adjacency (one record per Graph.Edges entry).
	inStart  []int
	inAdj    []Adj
	outStart []int
	outAdj   []Adj

	topo    []int
	topoErr error

	// cycles[id*NumPEClasses+class] is the task's WCET on class, or -1
	// when the task cannot run there.
	cycles []int64
}

// View returns the graph's cached adjacency view, rebuilding it if
// AddTask or Connect ran since the last call.
func (g *Graph) View() *View {
	if g.view != nil && g.view.version == g.version {
		return g.view
	}
	g.view = buildView(g)
	return g.view
}

// NumPEClasses is the number of distinct platform.PEClass values,
// sizing the view's dense per-class WCET table.
const NumPEClasses = int(platform.CTRL) + 1

func buildView(g *Graph) *View {
	n := len(g.Tasks)
	v := &View{g: g, version: g.version}

	// Per-edge CSR, counting sort by endpoint. Iterating g.Edges in
	// order both times keeps each bucket in edge order, matching the
	// iteration order of the legacy Preds/Succs scans.
	v.inStart = make([]int, n+1)
	v.outStart = make([]int, n+1)
	for _, e := range g.Edges {
		v.inStart[e.To+1]++
		v.outStart[e.From+1]++
	}
	for i := 0; i < n; i++ {
		v.inStart[i+1] += v.inStart[i]
		v.outStart[i+1] += v.outStart[i]
	}
	v.inAdj = make([]Adj, len(g.Edges))
	v.outAdj = make([]Adj, len(g.Edges))
	inNext := make([]int, n)
	outNext := make([]int, n)
	copy(inNext, v.inStart[:n])
	copy(outNext, v.outStart[:n])
	for i, e := range g.Edges {
		v.inAdj[inNext[e.To]] = Adj{Task: e.From, Edge: i, Bytes: e.Bytes}
		inNext[e.To]++
		v.outAdj[outNext[e.From]] = Adj{Task: e.To, Edge: i, Bytes: e.Bytes}
		outNext[e.From]++
	}

	// Aggregated adjacency: merge parallel edges (same pair, summed
	// bytes, first-occurrence order). Neighbor lists are short, so the
	// quadratic merge stays cheap and allocation-light.
	aggregate := func(start []int, adj []Adj) ([]int, []Adj) {
		aggStart := make([]int, n+1)
		agg := make([]Adj, 0, len(adj))
		for id := 0; id < n; id++ {
			aggStart[id] = len(agg)
			for _, a := range adj[start[id]:start[id+1]] {
				merged := false
				for j := aggStart[id]; j < len(agg); j++ {
					if agg[j].Task == a.Task {
						agg[j].Bytes += a.Bytes
						merged = true
						break
					}
				}
				if !merged {
					agg = append(agg, a)
				}
			}
		}
		aggStart[n] = len(agg)
		return aggStart, agg
	}
	v.predStart, v.predAdj = aggregate(v.inStart, v.inAdj)
	v.succStart, v.succAdj = aggregate(v.outStart, v.outAdj)

	v.buildTopo()

	v.cycles = make([]int64, n*NumPEClasses)
	for id, t := range g.Tasks {
		row := v.cycles[id*NumPEClasses : (id+1)*NumPEClasses]
		for cl := range row {
			row[cl] = -1
		}
		for cl, cyc := range t.WCET {
			if int(cl) >= 0 && int(cl) < NumPEClasses {
				row[cl] = cyc
			}
		}
	}
	return v
}

// buildTopo runs Kahn's algorithm with a min-heap on task ID — the
// same smallest-ID tie-break as the legacy sort-based TopoOrder, one
// pass instead of a sort per step.
func (v *View) buildTopo() {
	n := len(v.g.Tasks)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = v.inStart[id+1] - v.inStart[id]
	}
	heap := make([]int, 0, n)
	push := func(x int) {
		heap = append(heap, x)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent] <= heap[i] {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && heap[r] < heap[c] {
				c = r
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			push(id)
		}
	}
	order := make([]int, 0, n)
	for len(heap) > 0 {
		id := pop()
		order = append(order, id)
		for _, a := range v.outAdj[v.outStart[id]:v.outStart[id+1]] {
			indeg[a.Task]--
			if indeg[a.Task] == 0 {
				push(a.Task)
			}
		}
	}
	if len(order) != n {
		v.topoErr = fmt.Errorf("taskgraph: %q contains a cycle", v.g.Name)
		return
	}
	v.topo = order
}

// TopoOrder returns the memoized topological order (Kahn,
// smallest-ID tie-break) or the graph's cycle error. The slice is the
// view's own — read-only for callers.
func (v *View) TopoOrder() ([]int, error) {
	return v.topo, v.topoErr
}

// Preds returns task id's distinct predecessors in first-edge order,
// with parallel-edge bytes summed — the aggregation mapping cost
// models want. Read-only.
func (v *View) Preds(id int) []Adj {
	return v.predAdj[v.predStart[id]:v.predStart[id+1]]
}

// PredBase returns the index of task id's first aggregated
// predecessor record in a dense numbering of all tasks' Preds lists:
// Preds(id)[k] is record PredBase(id)+k, and PredBase(n) for n tasks
// is the record count. Callers key per-record tables by it.
func (v *View) PredBase(id int) int { return v.predStart[id] }

// Succs returns task id's distinct successors in first-edge order,
// with parallel-edge bytes summed. Read-only.
func (v *View) Succs(id int) []Adj {
	return v.succAdj[v.succStart[id]:v.succStart[id+1]]
}

// InEdges returns one record per incoming Graph.Edges entry of task
// id, in edge order. Read-only.
func (v *View) InEdges(id int) []Adj {
	return v.inAdj[v.inStart[id]:v.inStart[id+1]]
}

// OutEdges returns one record per outgoing Graph.Edges entry of task
// id, in edge order. Read-only.
func (v *View) OutEdges(id int) []Adj {
	return v.outAdj[v.outStart[id]:v.outStart[id+1]]
}

// CyclesOn returns task id's WCET on class from the dense table, with
// the same no-WCET sentinel as Task.CyclesOn.
func (v *View) CyclesOn(id int, class platform.PEClass) int64 {
	if c := v.cycles[id*NumPEClasses+int(class)]; c >= 0 {
		return c
	}
	return 1 << 50
}

// CanRunOn reports whether task id has a WCET on class, from the
// dense table.
func (v *View) CanRunOn(id int, class platform.PEClass) bool {
	return v.cycles[id*NumPEClasses+int(class)] >= 0
}
