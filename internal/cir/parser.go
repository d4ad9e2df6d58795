package cir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse lexes and parses src into a Program and runs the semantic
// checker.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded
// workload sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("cir: line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

func (p *parser) is(text string) bool { return p.cur().Text == text && p.cur().Kind != TokEOF }

func (p *parser) accept(text string) bool {
	if p.is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.cur().Text)
	}
	return nil
}

// parsePragma parses a '#pragma maps k=v k2 ...' token.
func parsePragma(t Token) (*Pragma, error) {
	fields := strings.Fields(t.Text)
	if len(fields) < 2 || fields[0] != "#pragma" || fields[1] != "maps" {
		return nil, fmt.Errorf("cir: line %d: only '#pragma maps' is supported, got %q", t.Line, t.Text)
	}
	pr := &Pragma{Line: t.Line, Keys: map[string]string{}}
	for _, f := range fields[2:] {
		k, v := f, ""
		if i := strings.Index(f, "="); i >= 0 {
			k, v = f[:i], f[i+1:]
		}
		pr.Keys[k] = v
		pr.Order = append(pr.Order, k)
	}
	return pr, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	var pending []*Pragma
	for p.cur().Kind != TokEOF {
		if p.cur().Kind == TokPragma {
			pr, err := parsePragma(p.next())
			if err != nil {
				return nil, err
			}
			pending = append(pending, pr)
			continue
		}
		if !p.is("int") && !p.is("void") {
			return nil, p.errf("expected declaration, found %q", p.cur().Text)
		}
		isVoid := p.cur().Text == "void"
		p.pos++
		isPtr := p.accept("*")
		if p.cur().Kind != TokIdent {
			return nil, p.errf("expected identifier, found %q", p.cur().Text)
		}
		name := p.next().Text
		if p.is("(") {
			fn, err := p.funcDecl(name, !isVoid, pending)
			if err != nil {
				return nil, err
			}
			pending = nil
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		if isVoid {
			return nil, p.errf("void variable %q", name)
		}
		if len(pending) > 0 {
			return nil, p.errf("pragma must precede a function")
		}
		d, err := p.varDeclTail(name, isPtr)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, d)
	}
	return prog, nil
}

// varDeclTail parses everything after `int [*] name`: optional array
// size, optional initializer, semicolon.
func (p *parser) varDeclTail(name string, isPtr bool) (*VarDecl, error) {
	d := &VarDecl{Line: p.cur().Line, Name: name, IsPtr: isPtr}
	if p.accept("[") {
		if p.cur().Kind != TokInt {
			return nil, p.errf("array size must be an integer literal")
		}
		n, err := strconv.ParseInt(p.next().Text, 0, 64)
		if err != nil || n <= 0 {
			return nil, p.errf("bad array size")
		}
		d.ArrayN = int(n)
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if d.ArrayN > 0 {
			return nil, p.errf("array initializers are not supported")
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, p.expect(";")
}

func (p *parser) funcDecl(name string, ret bool, pragmas []*Pragma) (*FuncDecl, error) {
	fn := &FuncDecl{Line: p.cur().Line, Name: name, Ret: ret, Pragmas: pragmas}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.accept(")") {
		for {
			if p.accept("void") {
				break
			}
			if err := p.expect("int"); err != nil {
				return nil, err
			}
			isPtr := p.accept("*")
			if p.cur().Kind != TokIdent {
				return nil, p.errf("expected parameter name")
			}
			d := &VarDecl{Line: p.cur().Line, Name: p.next().Text, IsPtr: isPtr, IsParam: true}
			if p.accept("[") {
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				d.IsPtr = true // array parameters decay to pointers
			}
			fn.Params = append(fn.Params, d)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	b := &Block{Line: p.cur().Line}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.accept("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Text == "{":
		return p.block()
	case t.Text == "int":
		p.pos++
		isPtr := p.accept("*")
		if p.cur().Kind != TokIdent {
			return nil, p.errf("expected identifier after 'int'")
		}
		name := p.next().Text
		d, err := p.varDeclTail(name, isPtr)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Line: t.Line, Decl: d}, nil
	case t.Text == "if":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Line: t.Line, Cond: cond, Then: then}
		if p.accept("else") {
			if p.is("if") {
				// else-if sugar: wrap in a block.
				inner, err := p.stmt()
				if err != nil {
					return nil, err
				}
				st.Else = &Block{Line: inner.Pos(), Stmts: []Stmt{inner}}
			} else {
				els, err := p.block()
				if err != nil {
					return nil, err
				}
				st.Else = els
			}
		}
		return st, nil
	case t.Text == "while":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Line: t.Line, Cond: cond, Body: body}, nil
	case t.Text == "for":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.is(";") {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			init = s
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		var cond Expr
		if !p.is(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			cond = e
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		var post Stmt
		if !p.is(")") {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			post = s
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Line: t.Line, Init: init, Cond: cond, Post: post, Body: body}, nil
	case t.Text == "return":
		p.pos++
		st := &ReturnStmt{Line: t.Line}
		if !p.is(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Val = e
		}
		return st, p.expect(";")
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		return s, p.expect(";")
	}
}

// simpleStmt parses an assignment, increment/decrement, a local
// declaration (for-init), or a bare expression.
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.cur()
	if t.Text == "int" {
		p.pos++
		isPtr := p.accept("*")
		if p.cur().Kind != TokIdent {
			return nil, p.errf("expected identifier after 'int'")
		}
		name := p.next().Text
		d := &VarDecl{Line: t.Line, Name: name, IsPtr: isPtr}
		if p.accept("=") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		return &DeclStmt{Line: t.Line, Decl: d}, nil
	}
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	cur := p.cur().Text
	switch cur {
	case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=":
		p.pos++
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !isLValue(lhs) {
			return nil, p.errf("assignment target is not assignable")
		}
		return &AssignStmt{Line: t.Line, LHS: lhs, Op: cur, RHS: rhs}, nil
	case "++", "--":
		p.pos++
		if !isLValue(lhs) {
			return nil, p.errf("increment target is not assignable")
		}
		op := "+="
		if cur == "--" {
			op = "-="
		}
		return &AssignStmt{Line: t.Line, LHS: lhs, Op: op, RHS: &IntLit{Line: t.Line, Val: 1}}, nil
	}
	return &ExprStmt{Line: t.Line, X: lhs}, nil
}

func isLValue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return true
	case *IndexExpr:
		return true
	case *UnaryExpr:
		return x.Op == "*"
	}
	return false
}

// Operator precedence (C-like).
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Text
		prec, ok := binPrec[op]
		if !ok || p.cur().Kind != TokPunct || prec < minPrec {
			return lhs, nil
		}
		line := p.cur().Line
		p.pos++
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Line: line, Op: op, L: lhs, R: rhs}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	switch t.Text {
	case "-", "!", "~", "*", "&":
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Line: t.Line, Op: t.Text, X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.is("[") {
		line := p.cur().Line
		p.pos++
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		e = &IndexExpr{Line: line, Base: e, Idx: idx}
	}
	return e, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.pos++
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Text)
		}
		return &IntLit{Line: t.Line, Val: v}, nil
	case t.Kind == TokIdent:
		p.pos++
		if p.is("(") {
			p.pos++
			call := &CallExpr{Line: t.Line, Fn: t.Text}
			if !p.accept(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &Ident{Line: t.Line, Name: t.Text}, nil
	case t.Text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	default:
		return nil, p.errf("unexpected token %q in expression", t.Text)
	}
}
