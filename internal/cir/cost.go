package cir

import (
	"mpsockit/internal/isa"
	"mpsockit/internal/platform"
)

// Op-mix cost weights per PE class, in cycles, so the MAPS
// partitioner and mapper (section IV) can estimate WCET per candidate
// PE class without compiling. alu, mul, div, mem and branch are read
// from the class's MR32 timing table (isa.Timing); call, the overhead
// of a call and its return, has no single MR32 instruction and is the
// cost model's own.
type classWeights struct {
	alu, mul, div, mem, branch, call int64
}

// weightsFrom takes a class's statement weights from its MR32 timing
// table and adds its call overhead.
func weightsFrom(t *isa.Timing, call int64) classWeights {
	c := &t.Cycles
	return classWeights{
		alu: c[isa.CostALU], mul: c[isa.CostMul], div: c[isa.CostDiv],
		mem: c[isa.CostMem], branch: c[isa.CostBranch], call: call,
	}
}

// costTable holds each PE class's weights, indexed by class and built
// once.
var costTable = [...]classWeights{
	platform.RISC: weightsFrom(isa.TimingRISC(), 6),
	platform.DSP:  weightsFrom(isa.TimingDSP(), 8),
	platform.VLIW: weightsFrom(isa.TimingVLIW(), 10),
	platform.ACC:  weightsFrom(isa.TimingACC(), 4),
	platform.CTRL: weightsFrom(isa.TimingCTRL(), 4),
}

// DefaultTrip is the iteration count assumed for loops whose bounds
// are not literal constants.
const DefaultTrip = 16

// CostModel estimates execution cycles of CIR fragments.
type CostModel struct {
	// Trip overrides the default assumed trip count for unbounded loops.
	Trip int
	prog *Program
	memo map[*FuncDecl]map[platform.PEClass]int64
	// depth guards against unbounded recursion in call-cost lookup.
	depth int
}

// NewCostModel builds a cost model over prog.
func NewCostModel(prog *Program) *CostModel {
	return &CostModel{
		Trip: DefaultTrip, prog: prog,
		memo: map[*FuncDecl]map[platform.PEClass]int64{},
	}
}

// FuncCycles estimates one invocation of fn on the given PE class.
func (cm *CostModel) FuncCycles(fn *FuncDecl, class platform.PEClass) int64 {
	if m, ok := cm.memo[fn]; ok {
		if v, ok := m[class]; ok {
			return v
		}
	}
	if cm.depth > 16 {
		return 1000 // recursion fallback
	}
	cm.depth++
	v := cm.BlockCycles(fn.Body, class)
	cm.depth--
	if cm.memo[fn] == nil {
		cm.memo[fn] = map[platform.PEClass]int64{}
	}
	cm.memo[fn][class] = v
	return v
}

// BlockCycles estimates a block.
func (cm *CostModel) BlockCycles(b *Block, class platform.PEClass) int64 {
	var total int64
	for _, s := range b.Stmts {
		total += cm.StmtCycles(s, class)
	}
	return total
}

// StmtCycles estimates one statement, scaling loop bodies by their
// (literal or assumed) trip counts.
func (cm *CostModel) StmtCycles(s Stmt, class platform.PEClass) int64 {
	w := costTable[class]
	switch x := s.(type) {
	case *Block:
		return cm.BlockCycles(x, class)
	case *DeclStmt:
		if x.Decl.Init != nil {
			return cm.ExprCycles(x.Decl.Init, class) + w.mem
		}
		return w.alu
	case *AssignStmt:
		c := cm.ExprCycles(x.RHS, class) + w.mem
		if _, isIdent := x.LHS.(*Ident); !isIdent {
			c += cm.ExprCycles(x.LHS, class)
		}
		return c
	case *IfStmt:
		c := cm.ExprCycles(x.Cond, class) + w.branch
		t := cm.BlockCycles(x.Then, class)
		e := int64(0)
		if x.Else != nil {
			e = cm.BlockCycles(x.Else, class)
		}
		// Average the arms: static estimate without profiles.
		return c + (t+e)/2
	case *WhileStmt:
		body := cm.BlockCycles(x.Body, class) + cm.ExprCycles(x.Cond, class) + w.branch
		return body * int64(cm.Trip)
	case *ForStmt:
		trip := int64(TripCount(x, cm.Trip))
		body := cm.BlockCycles(x.Body, class) + w.branch
		if x.Cond != nil {
			body += cm.ExprCycles(x.Cond, class)
		}
		if x.Post != nil {
			body += cm.StmtCycles(x.Post, class)
		}
		var init int64
		if x.Init != nil {
			init = cm.StmtCycles(x.Init, class)
		}
		return init + body*trip
	case *ReturnStmt:
		if x.Val != nil {
			return cm.ExprCycles(x.Val, class) + w.branch
		}
		return w.branch
	case *ExprStmt:
		return cm.ExprCycles(x.X, class)
	}
	return 1
}

// ExprCycles estimates one expression evaluation.
func (cm *CostModel) ExprCycles(e Expr, class platform.PEClass) int64 {
	w := costTable[class]
	switch x := e.(type) {
	case *IntLit:
		return 0
	case *Ident:
		return w.alu
	case *IndexExpr:
		return cm.ExprCycles(x.Base, class) + cm.ExprCycles(x.Idx, class) + w.mem
	case *UnaryExpr:
		c := cm.ExprCycles(x.X, class)
		if x.Op == "*" {
			return c + w.mem
		}
		return c + w.alu
	case *BinaryExpr:
		c := cm.ExprCycles(x.L, class) + cm.ExprCycles(x.R, class)
		switch x.Op {
		case "*":
			return c + w.mul
		case "/", "%":
			return c + w.div
		default:
			return c + w.alu
		}
	case *CallExpr:
		var c int64 = w.call
		for _, a := range x.Args {
			c += cm.ExprCycles(a, class)
		}
		if fn := cm.prog.Func(x.Fn); fn != nil {
			c += cm.FuncCycles(fn, class)
		} else {
			c += w.call // builtin
		}
		return c
	}
	return 1
}

// TripCount extracts a literal trip count from a canonical
// `for (i = a; i < b; i++)`-shaped loop, falling back to def.
func TripCount(f *ForStmt, def int) int {
	lo, hi, step, ok := loopBounds(f)
	if !ok || step == 0 {
		return def
	}
	n := (hi - lo + step - 1) / step
	if n <= 0 {
		return def
	}
	return int(n)
}

// loopBounds recognizes `for (i = C0; i < C1; i += C2)` patterns with
// literal constants; used by the cost model and by the recoder's loop
// splitter to reason about iteration spaces.
func loopBounds(f *ForStmt) (lo, hi, step int64, ok bool) {
	init, okI := f.Init.(*AssignStmt)
	var initDecl *DeclStmt
	if !okI {
		initDecl, okI = f.Init.(*DeclStmt)
	}
	if !okI {
		return 0, 0, 0, false
	}
	if init != nil {
		if lit, isLit := init.RHS.(*IntLit); isLit && init.Op == "=" {
			lo = lit.Val
		} else {
			return 0, 0, 0, false
		}
	} else {
		if initDecl.Decl.Init == nil {
			return 0, 0, 0, false
		}
		lit, isLit := initDecl.Decl.Init.(*IntLit)
		if !isLit {
			return 0, 0, 0, false
		}
		lo = lit.Val
	}
	cond, okC := f.Cond.(*BinaryExpr)
	if !okC || (cond.Op != "<" && cond.Op != "<=") {
		return 0, 0, 0, false
	}
	lit, okL := cond.R.(*IntLit)
	if !okL {
		return 0, 0, 0, false
	}
	hi = lit.Val
	if cond.Op == "<=" {
		hi++
	}
	post, okP := f.Post.(*AssignStmt)
	if !okP || post.Op != "+=" {
		return 0, 0, 0, false
	}
	slit, okS := post.RHS.(*IntLit)
	if !okS || slit.Val <= 0 {
		return 0, 0, 0, false
	}
	step = slit.Val
	return lo, hi, step, true
}

// LoopIndexVar returns the induction variable of a canonical loop, or
// "".
func LoopIndexVar(f *ForStmt) string {
	switch init := f.Init.(type) {
	case *AssignStmt:
		if id, ok := init.LHS.(*Ident); ok {
			return id.Name
		}
	case *DeclStmt:
		return init.Decl.Name
	}
	return ""
}
