package cir

import "fmt"

// Node is the common interface of all AST nodes.
type Node interface {
	Pos() int // source line
}

// Program is a parsed translation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Pragma is a parsed '#pragma maps' annotation: the lightweight C
// extension of section IV carrying real-time properties (period,
// deadline) and preferred PE types.
type Pragma struct {
	Line int
	// Keys holds key=value entries; flag-style entries map to "".
	Keys map[string]string
	// Order preserves key order for printing.
	Order []string
}

// Get returns a pragma value and whether it was present.
func (p *Pragma) Get(key string) (string, bool) {
	v, ok := p.Keys[key]
	return v, ok
}

// VarDecl declares a scalar, array or pointer variable.
type VarDecl struct {
	Line    int
	Name    string
	IsPtr   bool
	ArrayN  int  // 0 = scalar; >0 = array length
	IsParam bool // function parameter
	Init    Expr // optional initializer (scalars only)
}

// Pos implements Node.
func (d *VarDecl) Pos() int { return d.Line }

// FuncDecl is a function definition.
type FuncDecl struct {
	Line    int
	Name    string
	Params  []*VarDecl
	Ret     bool // true when declared 'int', false for 'void'
	Body    *Block
	Pragmas []*Pragma
}

// Pragma returns the first pragma value for key across the function's
// annotations.
func (f *FuncDecl) Pragma(key string) (string, bool) {
	for _, p := range f.Pragmas {
		if v, ok := p.Get(key); ok {
			return v, ok
		}
	}
	return "", false
}

// Stmt is any statement.
type Stmt interface {
	Node
	stmt()
}

// Block is a `{ ... }` statement list.
type Block struct {
	Line  int
	Stmts []Stmt
}

// DeclStmt wraps a local variable declaration.
type DeclStmt struct {
	Line int
	Decl *VarDecl
}

// AssignStmt is `lhs op rhs;` where op is =, +=, -=, *=, /=, %=, <<=, >>=.
type AssignStmt struct {
	Line int
	LHS  Expr // Ident, Index or Deref
	Op   string
	RHS  Expr
}

// IfStmt is `if (cond) then else otherwise`.
type IfStmt struct {
	Line int
	Cond Expr
	Then *Block
	Else *Block // nil when absent
}

// WhileStmt is `while (cond) body`.
type WhileStmt struct {
	Line int
	Cond Expr
	Body *Block
}

// ForStmt is `for (init; cond; post) body`. Init and Post may be nil.
type ForStmt struct {
	Line int
	Init Stmt // DeclStmt or AssignStmt
	Cond Expr
	Post Stmt // AssignStmt
	Body *Block
}

// ReturnStmt is `return expr?;`.
type ReturnStmt struct {
	Line int
	Val  Expr // nil for bare return
}

// ExprStmt is an expression evaluated for effect (calls).
type ExprStmt struct {
	Line int
	X    Expr
}

// Pos implementations.
func (s *Block) Pos() int      { return s.Line }
func (s *DeclStmt) Pos() int   { return s.Line }
func (s *AssignStmt) Pos() int { return s.Line }
func (s *IfStmt) Pos() int     { return s.Line }
func (s *WhileStmt) Pos() int  { return s.Line }
func (s *ForStmt) Pos() int    { return s.Line }
func (s *ReturnStmt) Pos() int { return s.Line }
func (s *ExprStmt) Pos() int   { return s.Line }

func (*Block) stmt()      {}
func (*DeclStmt) stmt()   {}
func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*WhileStmt) stmt()  {}
func (*ForStmt) stmt()    {}
func (*ReturnStmt) stmt() {}
func (*ExprStmt) stmt()   {}

// Expr is any expression.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	Line int
	Val  int64
}

// Ident references a variable.
type Ident struct {
	Line int
	Name string
}

// IndexExpr is `base[idx]`.
type IndexExpr struct {
	Line int
	Base Expr // Ident (array or pointer)
	Idx  Expr
}

// UnaryExpr is `-x`, `!x`, `~x`, `*p` (Deref) or `&v` (AddrOf).
type UnaryExpr struct {
	Line int
	Op   string
	X    Expr
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Line int
	Op   string
	L, R Expr
}

// CallExpr is `fn(args...)`.
type CallExpr struct {
	Line int
	Fn   string
	Args []Expr
}

// Pos implementations.
func (e *IntLit) Pos() int     { return e.Line }
func (e *Ident) Pos() int      { return e.Line }
func (e *IndexExpr) Pos() int  { return e.Line }
func (e *UnaryExpr) Pos() int  { return e.Line }
func (e *BinaryExpr) Pos() int { return e.Line }
func (e *CallExpr) Pos() int   { return e.Line }

func (*IntLit) expr()     {}
func (*Ident) expr()      {}
func (*IndexExpr) expr()  {}
func (*UnaryExpr) expr()  {}
func (*BinaryExpr) expr() {}
func (*CallExpr) expr()   {}

// Walk applies fn to every node in the subtree rooted at n (pre-order);
// fn returning false prunes descent.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *VarDecl:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
	case *Block:
		for _, s := range x.Stmts {
			Walk(s, fn)
		}
	case *DeclStmt:
		Walk(x.Decl, fn)
	case *AssignStmt:
		Walk(x.LHS, fn)
		Walk(x.RHS, fn)
	case *IfStmt:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	case *WhileStmt:
		Walk(x.Cond, fn)
		Walk(x.Body, fn)
	case *ForStmt:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
		if x.Cond != nil {
			Walk(x.Cond, fn)
		}
		if x.Post != nil {
			Walk(x.Post, fn)
		}
		Walk(x.Body, fn)
	case *ReturnStmt:
		if x.Val != nil {
			Walk(x.Val, fn)
		}
	case *ExprStmt:
		Walk(x.X, fn)
	case *IndexExpr:
		Walk(x.Base, fn)
		Walk(x.Idx, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *BinaryExpr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *CallExpr:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *IntLit, *Ident:
	default:
		panic(fmt.Sprintf("cir: Walk: unknown node %T", n))
	}
}
