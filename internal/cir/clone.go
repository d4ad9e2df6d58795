package cir

import "fmt"

// CloneVarDecl deep-copies a declaration.
func CloneVarDecl(d *VarDecl) *VarDecl {
	c := *d
	if d.Init != nil {
		c.Init = CloneExpr(d.Init)
	}
	return &c
}

// CloneBlock deep-copies a block.
func CloneBlock(b *Block) *Block {
	c := &Block{Line: b.Line}
	for _, s := range b.Stmts {
		c.Stmts = append(c.Stmts, CloneStmt(s))
	}
	return c
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Block:
		return CloneBlock(x)
	case *DeclStmt:
		return &DeclStmt{Line: x.Line, Decl: CloneVarDecl(x.Decl)}
	case *AssignStmt:
		return &AssignStmt{Line: x.Line, LHS: CloneExpr(x.LHS), Op: x.Op, RHS: CloneExpr(x.RHS)}
	case *IfStmt:
		c := &IfStmt{Line: x.Line, Cond: CloneExpr(x.Cond), Then: CloneBlock(x.Then)}
		if x.Else != nil {
			c.Else = CloneBlock(x.Else)
		}
		return c
	case *WhileStmt:
		return &WhileStmt{Line: x.Line, Cond: CloneExpr(x.Cond), Body: CloneBlock(x.Body)}
	case *ForStmt:
		c := &ForStmt{Line: x.Line, Body: CloneBlock(x.Body)}
		if x.Init != nil {
			c.Init = CloneStmt(x.Init)
		}
		if x.Cond != nil {
			c.Cond = CloneExpr(x.Cond)
		}
		if x.Post != nil {
			c.Post = CloneStmt(x.Post)
		}
		return c
	case *ReturnStmt:
		c := &ReturnStmt{Line: x.Line}
		if x.Val != nil {
			c.Val = CloneExpr(x.Val)
		}
		return c
	case *ExprStmt:
		return &ExprStmt{Line: x.Line, X: CloneExpr(x.X)}
	}
	panic(fmt.Sprintf("cir: CloneStmt: unknown %T", s))
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit:
		c := *x
		return &c
	case *Ident:
		c := *x
		return &c
	case *IndexExpr:
		return &IndexExpr{Line: x.Line, Base: CloneExpr(x.Base), Idx: CloneExpr(x.Idx)}
	case *UnaryExpr:
		return &UnaryExpr{Line: x.Line, Op: x.Op, X: CloneExpr(x.X)}
	case *BinaryExpr:
		return &BinaryExpr{Line: x.Line, Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *CallExpr:
		c := &CallExpr{Line: x.Line, Fn: x.Fn}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	}
	panic(fmt.Sprintf("cir: CloneExpr: unknown %T", e))
}

// LoopBounds exposes the canonical-loop bound analysis: lo, hi, step
// for `for (i = lo; i < hi; i += step)` loops with literal constants.
func LoopBounds(f *ForStmt) (lo, hi, step int64, ok bool) {
	return loopBounds(f)
}
