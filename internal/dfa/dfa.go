// Package dfa implements the dataflow analyses the paper's tools rely
// on: MAPS "uses advanced dataflow analysis to extract the available
// parallelism from the sequential codes" (section IV), and the Source
// Recoder invokes transformations to "analyze shared data accesses"
// (section VI). The package provides read/write set extraction,
// statement-level dependence graphs with communication volumes, array
// dependence tests for canonical loops, privatization and reduction
// recognition.
package dfa

import (
	"sort"

	"mpsockit/internal/cir"
)

// Access is one variable access with whatever subscript structure
// could be recovered.
type Access struct {
	Var   string
	Write bool
	// Indexed is true for a[...] or *(p+...) accesses.
	Indexed bool
	// Affine is true when the subscript is i+Offset for loop index i
	// (IndexVar); constant subscripts have IndexVar == "".
	Affine   bool
	IndexVar string
	Offset   int64
	Line     int
}

// affineIndex decomposes e as (indexVar, offset) when e is i, i+c,
// i-c, or a constant.
func affineIndex(e cir.Expr) (iv string, off int64, ok bool) {
	switch x := e.(type) {
	case *cir.IntLit:
		return "", x.Val, true
	case *cir.Ident:
		return x.Name, 0, true
	case *cir.BinaryExpr:
		id, isIdent := x.L.(*cir.Ident)
		lit, isLit := x.R.(*cir.IntLit)
		if isIdent && isLit {
			switch x.Op {
			case "+":
				return id.Name, lit.Val, true
			case "-":
				return id.Name, -lit.Val, true
			}
		}
		// c + i form
		lit2, isLit2 := x.L.(*cir.IntLit)
		id2, isIdent2 := x.R.(*cir.Ident)
		if isLit2 && isIdent2 && x.Op == "+" {
			return id2.Name, lit2.Val, true
		}
	}
	return "", 0, false
}

// exprAccesses appends all accesses in e (evaluated for reading) to
// out.
func exprAccesses(e cir.Expr, out *[]Access) {
	switch x := e.(type) {
	case *cir.IntLit:
	case *cir.Ident:
		*out = append(*out, Access{Var: x.Name, Line: x.Line})
	case *cir.IndexExpr:
		if base, ok := x.Base.(*cir.Ident); ok {
			a := Access{Var: base.Name, Indexed: true, Line: x.Line}
			if iv, off, ok := affineIndex(x.Idx); ok {
				a.Affine = true
				a.IndexVar = iv
				a.Offset = off
			}
			*out = append(*out, a)
		} else {
			exprAccesses(x.Base, out)
		}
		exprAccesses(x.Idx, out)
	case *cir.UnaryExpr:
		if x.Op == "*" {
			// Pointer dereference: attribute to the pointer variable
			// when recoverable, with unknown subscript.
			if p, arith, ok := derefTarget(x.X); ok {
				a := Access{Var: p, Indexed: true, Line: x.Line}
				if iv, off, aok := affineIndex(arith); aok {
					a.Affine = true
					a.IndexVar = iv
					a.Offset = off
				}
				*out = append(*out, a)
				exprAccesses(arith, out)
				return
			}
		}
		exprAccesses(x.X, out)
	case *cir.BinaryExpr:
		exprAccesses(x.L, out)
		exprAccesses(x.R, out)
	case *cir.CallExpr:
		for _, arg := range x.Args {
			exprAccesses(arg, out)
		}
	}
}

// derefTarget decomposes *(p) or *(p+e) into (pointer var, index expr).
func derefTarget(e cir.Expr) (pvar string, idx cir.Expr, ok bool) {
	switch x := e.(type) {
	case *cir.Ident:
		return x.Name, &cir.IntLit{Line: x.Line, Val: 0}, true
	case *cir.BinaryExpr:
		if id, isID := x.L.(*cir.Ident); isID && (x.Op == "+" || x.Op == "-") {
			idx := x.R
			if x.Op == "-" {
				idx = &cir.UnaryExpr{Line: x.Line, Op: "-", X: x.R}
			}
			return id.Name, idx, true
		}
	}
	return "", nil, false
}

// lhsAccesses extracts the write access of an assignment target plus
// the reads embedded in its subscripts.
func lhsAccesses(e cir.Expr, out *[]Access) {
	switch x := e.(type) {
	case *cir.Ident:
		*out = append(*out, Access{Var: x.Name, Write: true, Line: x.Line})
	case *cir.IndexExpr:
		if base, ok := x.Base.(*cir.Ident); ok {
			a := Access{Var: base.Name, Write: true, Indexed: true, Line: x.Line}
			if iv, off, ok := affineIndex(x.Idx); ok {
				a.Affine = true
				a.IndexVar = iv
				a.Offset = off
			}
			*out = append(*out, a)
		} else {
			exprAccesses(x.Base, out)
		}
		exprAccesses(x.Idx, out)
	case *cir.UnaryExpr:
		if x.Op == "*" {
			if p, arith, ok := derefTarget(x.X); ok {
				a := Access{Var: p, Write: true, Indexed: true, Line: x.Line}
				if iv, off, aok := affineIndex(arith); aok {
					a.Affine = true
					a.IndexVar = iv
					a.Offset = off
				}
				*out = append(*out, a)
				exprAccesses(arith, out)
				return
			}
		}
		exprAccesses(x.X, out)
	}
}

// StmtAccesses returns every access performed by s (recursively).
func StmtAccesses(s cir.Stmt) []Access {
	var out []Access
	collectStmt(s, &out)
	return out
}

func collectStmt(s cir.Stmt, out *[]Access) {
	switch x := s.(type) {
	case *cir.Block:
		for _, st := range x.Stmts {
			collectStmt(st, out)
		}
	case *cir.DeclStmt:
		if x.Decl.Init != nil {
			exprAccesses(x.Decl.Init, out)
		}
		*out = append(*out, Access{Var: x.Decl.Name, Write: true, Line: x.Line})
	case *cir.AssignStmt:
		if x.Op != "=" {
			// Compound assignment also reads the target.
			var tmp []Access
			lhsAccesses(x.LHS, &tmp)
			for _, a := range tmp {
				if a.Write {
					r := a
					r.Write = false
					*out = append(*out, r)
				}
			}
		}
		exprAccesses(x.RHS, out)
		lhsAccesses(x.LHS, out)
	case *cir.IfStmt:
		exprAccesses(x.Cond, out)
		collectStmt(x.Then, out)
		if x.Else != nil {
			collectStmt(x.Else, out)
		}
	case *cir.WhileStmt:
		exprAccesses(x.Cond, out)
		collectStmt(x.Body, out)
	case *cir.ForStmt:
		if x.Init != nil {
			collectStmt(x.Init, out)
		}
		if x.Cond != nil {
			exprAccesses(x.Cond, out)
		}
		if x.Post != nil {
			collectStmt(x.Post, out)
		}
		collectStmt(x.Body, out)
	case *cir.ReturnStmt:
		if x.Val != nil {
			exprAccesses(x.Val, out)
		}
	case *cir.ExprStmt:
		exprAccesses(x.X, out)
	}
}

// RWSet summarizes reads and writes by variable name.
type RWSet struct {
	Reads  map[string]bool
	Writes map[string]bool
}

// StmtRW computes the read/write sets of a statement, excluding
// variables declared inside it (purely local effects).
func StmtRW(s cir.Stmt) RWSet {
	rw := RWSet{Reads: map[string]bool{}, Writes: map[string]bool{}}
	locals := map[string]bool{}
	cir.Walk(s, func(n cir.Node) bool {
		if d, ok := n.(*cir.DeclStmt); ok {
			locals[d.Decl.Name] = true
		}
		return true
	})
	for _, a := range StmtAccesses(s) {
		if locals[a.Var] {
			continue
		}
		if a.Write {
			rw.Writes[a.Var] = true
		} else {
			rw.Reads[a.Var] = true
		}
	}
	return rw
}

// Vars returns the sorted union of reads and writes.
func (rw RWSet) Vars() []string {
	set := map[string]bool{}
	for v := range rw.Reads {
		set[v] = true
	}
	for v := range rw.Writes {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// DepKind classifies a dependence edge.
type DepKind int

// Dependence kinds.
const (
	RAW DepKind = iota // true/flow dependence (data actually moves)
	WAR                // anti dependence
	WAW                // output dependence
)

// DepEdge connects statement From to the later statement To.
type DepEdge struct {
	From, To int
	Kind     DepKind
	Vars     []string
}

// DepGraph is the statement-level dependence graph of a function
// body's top-level statements — the structure MAPS clusters into
// coarse task graphs.
type DepGraph struct {
	Fn    *cir.FuncDecl
	Stmts []cir.Stmt
	RW    []RWSet
	Edges []DepEdge
}

// BuildDepGraph analyzes the top-level statements of fn.
func BuildDepGraph(fn *cir.FuncDecl) *DepGraph {
	g := &DepGraph{Fn: fn}
	for _, s := range fn.Body.Stmts {
		g.Stmts = append(g.Stmts, s)
		g.RW = append(g.RW, StmtRW(s))
	}
	for i := 0; i < len(g.Stmts); i++ {
		for j := i + 1; j < len(g.Stmts); j++ {
			g.addEdges(i, j)
		}
	}
	return g
}

func intersect(a, b map[string]bool) []string {
	var out []string
	for v := range a {
		if b[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func (g *DepGraph) addEdges(i, j int) {
	ri, rj := g.RW[i], g.RW[j]
	if vs := intersect(ri.Writes, rj.Reads); len(vs) > 0 {
		g.Edges = append(g.Edges, DepEdge{From: i, To: j, Kind: RAW, Vars: vs})
	}
	if vs := intersect(ri.Reads, rj.Writes); len(vs) > 0 {
		g.Edges = append(g.Edges, DepEdge{From: i, To: j, Kind: WAR, Vars: vs})
	}
	if vs := intersect(ri.Writes, rj.Writes); len(vs) > 0 {
		g.Edges = append(g.Edges, DepEdge{From: i, To: j, Kind: WAW, Vars: vs})
	}
}

// FlowDeps returns only the RAW edges — the ones that carry data and
// hence communication volume between partitioned tasks.
func (g *DepGraph) FlowDeps() []DepEdge {
	var out []DepEdge
	for _, e := range g.Edges {
		if e.Kind == RAW {
			out = append(out, e)
		}
	}
	return out
}
