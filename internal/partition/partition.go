// Package partition implements the MAPS-style semi-automatic code
// partitioner of the paper's section IV: it turns a sequential CIR
// function into a coarse task graph using the statement-level
// dependence graph ("MAPS uses advanced dataflow analysis to extract
// the available parallelism from the sequential codes and to form a
// set of fine-grained task graphs"), then clusters fine-grained nodes
// under a granularity/communication heuristic.
//
// "Semi-automatic" enters through Options: the designer chooses the
// target task count and granularity floor, and can pin statements
// together, mirroring the tool-plus-designer workflow the paper
// describes.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"mpsockit/internal/cir"
	"mpsockit/internal/dfa"
	"mpsockit/internal/platform"
	"mpsockit/internal/taskgraph"
)

// Options steer the clustering.
type Options struct {
	// MaxTasks bounds the number of coarse tasks (0 = no bound).
	MaxTasks int
	// MinTaskCycles merges any cluster cheaper than this (on the RISC
	// cost basis) into a neighbour; prevents absurdly fine tasks whose
	// dispatch overhead dominates (the OSIP discussion of section IV).
	MinTaskCycles int64
	// Pin forces statement indices to share a cluster (designer
	// knowledge, the "semi" in semi-automatic).
	Pin [][]int
	// ElementBytes sizes a data element for communication-volume
	// estimates (default 4, i.e. int32 on the target).
	ElementBytes int
}

// Result is the partitioning outcome.
type Result struct {
	Graph *taskgraph.Graph
	// Clusters maps each coarse task to the top-level statement
	// indices it contains, in source order.
	Clusters [][]int
	// Parallelism notes which clusters contain parallelizable loops
	// (candidates for further data-parallel splitting by the recoder).
	Parallelism map[int]*dfa.LoopInfo
	// Report is a human-readable summary for the designer.
	Report string
}

// Partition analyzes fnName in prog and produces a coarse task graph.
func Partition(prog *cir.Program, fnName string, opt Options) (*Result, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("partition: no function %q", fnName)
	}
	if opt.ElementBytes <= 0 {
		opt.ElementBytes = 4
	}
	dep := dfa.BuildDepGraph(fn)
	n := len(dep.Stmts)
	if n == 0 {
		return nil, fmt.Errorf("partition: %q has an empty body", fnName)
	}

	cm := cir.NewCostModel(prog)
	cost := make([]int64, n)
	for i, s := range dep.Stmts {
		cost[i] = cm.StmtCycles(s, platform.RISC)
	}

	// Union-find over statements.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(b)] = find(a) }

	for _, pin := range opt.Pin {
		for i := 1; i < len(pin); i++ {
			if pin[i] < 0 || pin[i] >= n || pin[0] < 0 || pin[0] >= n {
				return nil, fmt.Errorf("partition: pin index out of range: %v", pin)
			}
			union(pin[0], pin[i])
		}
	}

	// normalize collapses mutually reachable clusters: pinning distant
	// statements together pulls every cluster on a dependence path
	// between them into the same task, keeping the cluster graph a DAG.
	normalize := func() {
		for {
			adj := map[int]map[int]bool{}
			roots := map[int]bool{}
			for _, e := range dep.Edges {
				cf, ct := find(e.From), find(e.To)
				roots[cf] = true
				roots[ct] = true
				if cf == ct {
					continue
				}
				if adj[cf] == nil {
					adj[cf] = map[int]bool{}
				}
				adj[cf][ct] = true
			}
			reach := func(from, to int) bool {
				stack := []int{from}
				seen := map[int]bool{}
				for len(stack) > 0 {
					c := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if c == to {
						return true
					}
					if seen[c] {
						continue
					}
					seen[c] = true
					for s := range adj[c] {
						stack = append(stack, s)
					}
				}
				return false
			}
			changed := false
			var rootList []int
			for r := range roots {
				rootList = append(rootList, r)
			}
			sort.Ints(rootList)
			for i := 0; i < len(rootList) && !changed; i++ {
				for j := i + 1; j < len(rootList) && !changed; j++ {
					a, b := rootList[i], rootList[j]
					if find(a) != find(b) && reach(a, b) && reach(b, a) {
						union(a, b)
						changed = true
					}
				}
			}
			if !changed {
				return
			}
		}
	}
	normalize()

	volume := func(vars []string) int {
		total := 0
		for _, v := range vars {
			elems := 1
			for _, g := range prog.Globals {
				if g.Name == v && g.ArrayN > 0 {
					elems = g.ArrayN
				}
			}
			total += elems * opt.ElementBytes
		}
		return total
	}

	clusterCost := func() map[int]int64 {
		m := map[int]int64{}
		for i := 0; i < n; i++ {
			m[find(i)] += cost[i]
		}
		return m
	}
	clusterCount := func() int {
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			seen[find(i)] = true
		}
		return len(seen)
	}
	// wouldCycle reports whether merging clusters a and b creates a
	// cycle in the cluster DAG: true iff a path a→…→b (or b→…→a)
	// exists that passes through at least one third cluster.
	wouldCycle := func(a, b int) bool {
		adj := map[int]map[int]bool{}
		for _, e := range dep.Edges {
			cf, ct := find(e.From), find(e.To)
			if cf == ct {
				continue
			}
			if adj[cf] == nil {
				adj[cf] = map[int]bool{}
			}
			adj[cf][ct] = true
		}
		reachVia := func(from, to int) bool {
			// BFS from 'from', skipping the direct from→to edge; any
			// arrival at 'to' then goes through an intermediate.
			var stack []int
			seen := map[int]bool{from: true}
			for s := range adj[from] {
				if s != to {
					stack = append(stack, s)
				}
			}
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if c == to {
					return true
				}
				if seen[c] {
					continue
				}
				seen[c] = true
				for s := range adj[c] {
					stack = append(stack, s)
				}
			}
			return false
		}
		return reachVia(a, b) || reachVia(b, a)
	}

	type candidate struct {
		a, b int // cluster roots
		vol  int
	}
	mergeOnce := func(pred func(costs map[int]int64, c candidate) bool) bool {
		costs := clusterCost()
		var cands []candidate
		seen := map[[2]int]int{}
		for _, e := range dep.Edges {
			if e.Kind != dfa.RAW {
				continue
			}
			a, b := find(e.From), find(e.To)
			if a == b {
				continue
			}
			key := [2]int{a, b}
			seen[key] += volume(e.Vars)
		}
		for key, vol := range seen {
			cands = append(cands, candidate{a: key[0], b: key[1], vol: vol})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].vol != cands[j].vol {
				return cands[i].vol > cands[j].vol
			}
			if cands[i].a != cands[j].a {
				return cands[i].a < cands[j].a
			}
			return cands[i].b < cands[j].b
		})
		for _, c := range cands {
			if !pred(costs, c) {
				continue
			}
			if wouldCycle(c.a, c.b) {
				continue
			}
			union(c.a, c.b)
			return true
		}
		return false
	}

	// Phase 1: grow tiny clusters to the granularity floor.
	for {
		merged := mergeOnce(func(costs map[int]int64, c candidate) bool {
			return costs[c.a] < opt.MinTaskCycles || costs[c.b] < opt.MinTaskCycles
		})
		if !merged {
			break
		}
	}
	// Phase 2: respect the MaxTasks bound, merging the chattiest pairs
	// first (keeps communication on-cluster).
	for opt.MaxTasks > 0 && clusterCount() > opt.MaxTasks {
		if !mergeOnce(func(map[int]int64, candidate) bool { return true }) {
			// No mergeable RAW pair left; merge adjacent-in-source
			// clusters as a last resort (first pair that stays acyclic).
			roots := map[int]bool{}
			var order []int
			for i := 0; i < n; i++ {
				r := find(i)
				if !roots[r] {
					roots[r] = true
					order = append(order, r)
				}
			}
			merged := false
			for i := 0; i+1 < len(order) && !merged; i++ {
				if !wouldCycle(order[i], order[i+1]) {
					union(order[i], order[i+1])
					merged = true
				}
			}
			if !merged {
				break
			}
		}
	}

	// Materialize clusters in source order of their first statement.
	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		byRoot[find(i)] = append(byRoot[find(i)], i)
	}
	var roots []int
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })

	res := &Result{Parallelism: map[int]*dfa.LoopInfo{}}
	tg := taskgraph.NewGraph(fnName)
	clusterIdx := map[int]int{}
	for ci, r := range roots {
		stmts := byRoot[r]
		res.Clusters = append(res.Clusters, stmts)
		clusterIdx[r] = ci
		wcet := map[platform.PEClass]int64{}
		for _, class := range []platform.PEClass{platform.RISC, platform.DSP, platform.VLIW, platform.CTRL} {
			var c int64
			for _, si := range stmts {
				c += cm.StmtCycles(dep.Stmts[si], class)
			}
			wcet[class] = c
		}
		t := &taskgraph.Task{
			Name: fmt.Sprintf("%s_t%d", fnName, ci),
			WCET: wcet,
		}
		tg.AddTask(t)
		// Note data-parallel potential for the recoder.
		for _, si := range stmts {
			if loop, ok := dep.Stmts[si].(*cir.ForStmt); ok {
				if info := dfa.AnalyzeLoop(prog, loop); info.Parallel {
					res.Parallelism[ci] = info
				}
			}
		}
	}
	// Aggregate inter-cluster RAW edges.
	agg := map[[2]int]int{}
	for _, e := range dep.Edges {
		if e.Kind != dfa.RAW {
			continue
		}
		a, b := clusterIdx[find(e.From)], clusterIdx[find(e.To)]
		if a != b {
			agg[[2]int{a, b}] += volume(e.Vars)
		}
	}
	var keys [][2]int
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		tg.Connect(tg.Tasks[k[0]], tg.Tasks[k[1]], agg[k], "")
	}
	if err := tg.Validate(); err != nil {
		return nil, fmt.Errorf("partition: produced invalid graph: %w", err)
	}
	res.Graph = tg
	res.Report = report(fn, res, cost)
	return res, nil
}

func report(fn *cir.FuncDecl, res *Result, cost []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MAPS partition of %s: %d statements -> %d tasks\n",
		fn.Name, len(cost), len(res.Clusters))
	for ci, stmts := range res.Clusters {
		var c int64
		for _, si := range stmts {
			c += cost[si]
		}
		fmt.Fprintf(&b, "  task %d: stmts %v, ~%d RISC cycles", ci, stmts, c)
		if info, ok := res.Parallelism[ci]; ok {
			fmt.Fprintf(&b, " [data-parallel: trip %d", info.Trip)
			if len(info.Reductions) > 0 {
				fmt.Fprintf(&b, ", reductions %v", info.Reductions)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	for _, e := range res.Graph.Edges {
		fmt.Fprintf(&b, "  edge t%d -> t%d: %d bytes\n", e.From, e.To, e.Bytes)
	}
	return b.String()
}
