// Package taskgraph models the coarse-grained task graphs the MAPS
// flow extracts from sequential code (section IV of the paper):
// tasks with per-PE-class WCETs and real-time attributes, weighted
// communication edges, and the multi-application concurrency graph
// MAPS uses "to capture potential parallelism between applications,
// in order to derive the worst case computational loads".
package taskgraph

import (
	"fmt"
	"sort"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// RTClass is the real-time criticality of a task or application.
// Section IV: "Hard real-time applications are scheduled statically,
// while soft and non-real-time applications are scheduled dynamically
// according to their priority in best effort manner."
type RTClass int

// Real-time classes.
const (
	BestEffort RTClass = iota
	SoftRT
	HardRT
)

func (c RTClass) String() string {
	switch c {
	case HardRT:
		return "hard"
	case SoftRT:
		return "soft"
	default:
		return "best-effort"
	}
}

// Task is one schedulable unit.
type Task struct {
	ID   int
	Name string
	// WCET gives worst-case cycles per PE class; absence means the
	// task cannot run on that class.
	WCET map[platform.PEClass]int64
	// PreferredPE is the '#pragma maps pe=...' hint.
	PreferredPE platform.PEClass
	HasPref     bool

	Period   sim.Time
	Deadline sim.Time
	Priority int
	RT       RTClass
}

// CanRunOn reports whether the task has a WCET for the class.
func (t *Task) CanRunOn(class platform.PEClass) bool {
	_, ok := t.WCET[class]
	return ok
}

// CyclesOn returns the task's WCET on class; +Inf-ish for impossible.
func (t *Task) CyclesOn(class platform.PEClass) int64 {
	if c, ok := t.WCET[class]; ok {
		return c
	}
	return 1 << 50
}

// Edge is a directed data dependence carrying Bytes of payload.
type Edge struct {
	From, To int
	Bytes    int
	Label    string
}

// Graph is a task DAG. Mutate it only through AddTask and Connect:
// both invalidate the cached View, direct writes to Tasks/Edges do
// not.
type Graph struct {
	Name  string
	Tasks []*Task
	Edges []Edge

	// version counts structural mutations; View caches against it.
	version uint64
	view    *View
}

// NewGraph returns an empty task graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddTask appends a task and assigns its ID.
func (g *Graph) AddTask(t *Task) *Task {
	t.ID = len(g.Tasks)
	g.Tasks = append(g.Tasks, t)
	g.version++
	return t
}

// Connect adds a dependence edge.
func (g *Graph) Connect(from, to *Task, bytes int, label string) {
	g.Edges = append(g.Edges, Edge{From: from.ID, To: to.ID, Bytes: bytes, Label: label})
	g.version++
}

// Validate checks IDs, edge endpoints, and acyclicity.
func (g *Graph) Validate() error {
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("taskgraph: task %q has ID %d at position %d", t.Name, t.ID, i)
		}
		if len(t.WCET) == 0 {
			return fmt.Errorf("taskgraph: task %q has no WCET on any PE class", t.Name)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Tasks) || e.To < 0 || e.To >= len(g.Tasks) {
			return fmt.Errorf("taskgraph: edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskgraph: self edge on task %d", e.From)
		}
	}
	_, err := g.View().TopoOrder()
	return err
}

// TotalCycles sums the WCETs of all tasks on the given class.
func (g *Graph) TotalCycles(class platform.PEClass) int64 {
	var total int64
	for _, t := range g.Tasks {
		total += t.CyclesOn(class)
	}
	return total
}

// App is one application instance for the concurrency analysis.
type App struct {
	ID    int
	Name  string
	Graph *Graph
	// Period over which the graph executes once.
	Period sim.Time
	RT     RTClass
}

// Load returns the app's utilization demand in cycles per second on
// the given class: total cycles / period.
func (a *App) Load(class platform.PEClass) float64 {
	if a.Period <= 0 {
		return 0
	}
	return float64(a.Graph.TotalCycles(class)) / a.Period.Seconds()
}

// ConcurrencyGraph marks which applications may be active
// simultaneously (section IV's multi-application usage scenarios).
type ConcurrencyGraph struct {
	Apps []*App
	// conc[i][j] = true when apps i and j can run at the same time.
	conc map[[2]int]bool
}

// NewConcurrencyGraph returns an empty concurrency graph.
func NewConcurrencyGraph() *ConcurrencyGraph {
	return &ConcurrencyGraph{conc: map[[2]int]bool{}}
}

// AddApp registers an application.
func (c *ConcurrencyGraph) AddApp(a *App) *App {
	a.ID = len(c.Apps)
	c.Apps = append(c.Apps, a)
	return a
}

// MarkConcurrent records that a and b may be active together.
func (c *ConcurrencyGraph) MarkConcurrent(a, b *App) {
	if a.ID == b.ID {
		return
	}
	i, j := a.ID, b.ID
	if i > j {
		i, j = j, i
	}
	c.conc[[2]int{i, j}] = true
}

// Concurrent reports whether apps i and j may overlap.
func (c *ConcurrencyGraph) Concurrent(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	return c.conc[[2]int{i, j}]
}

// MaximalCliques enumerates maximal sets of pairwise-concurrent apps.
// Usage scenarios involve a handful of applications, so exhaustive
// subset enumeration (2^n) is both simple and exact; it panics beyond
// 20 apps rather than silently blowing up.
func (c *ConcurrencyGraph) MaximalCliques() [][]int {
	n := len(c.Apps)
	if n == 0 {
		return nil
	}
	if n > 20 {
		panic("taskgraph: too many apps for exhaustive clique enumeration")
	}
	isClique := func(mask uint32) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) != 0 && !c.Concurrent(i, j) {
					return false
				}
			}
		}
		return true
	}
	var cliqueMasks []uint32
	for mask := uint32(1); mask < 1<<n; mask++ {
		if isClique(mask) {
			cliqueMasks = append(cliqueMasks, mask)
		}
	}
	var cliques [][]int
	for _, m := range cliqueMasks {
		maximal := true
		for _, o := range cliqueMasks {
			if o != m && o&m == m {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		var clique []int
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				clique = append(clique, i)
			}
		}
		cliques = append(cliques, clique)
	}
	sort.Slice(cliques, func(a, b int) bool {
		return fmt.Sprint(cliques[a]) < fmt.Sprint(cliques[b])
	})
	return cliques
}

// WorstCaseLoad returns, per PE class, the maximum aggregate
// cycles-per-second demand over all maximal concurrency cliques, and
// the clique realizing it — the "worst case computational loads" of
// section IV.
func (c *ConcurrencyGraph) WorstCaseLoad(class platform.PEClass) (float64, []int) {
	var worst float64
	var at []int
	for _, clique := range c.MaximalCliques() {
		var load float64
		for _, id := range clique {
			load += c.Apps[id].Load(class)
		}
		if load > worst {
			worst = load
			at = clique
		}
	}
	return worst, at
}
