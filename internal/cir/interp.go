package cir

import "fmt"

// Value is a runtime value: an integer or a pointer into an array
// backing store.
type Value struct {
	IsPtr bool
	I     int64
	Data  []int64
	Off   int64
}

// IntV wraps an int64.
func IntV(v int64) Value { return Value{I: v} }

// cell is a variable's storage: scalars are one-element slices so that
// '&' can hand out aliasing pointers. A cell holding a pointer value
// keeps it in ptr (CIR pointers are opaque; they cannot be stored in
// integer slots).
type cell struct {
	data  []int64
	isArr bool
	ptr   *Value
}

// Interp is a tree-walking interpreter for CIR programs. It serves as
// the behavioural oracle: the Source Recoder proves transformations
// semantics-preserving by comparing interpreter outputs before and
// after (section VI), and workload golden models are validated
// against it.
type Interp struct {
	Prog    *Program
	globals map[string]*cell
	// Output collects print() values in order.
	Output []int64
	// Chans are the FIFO channels behind chan_send/chan_recv.
	Chans map[int64][]int64
	// Steps counts executed statements; MaxSteps guards against
	// runaway loops (0 = default 50M).
	Steps    int64
	MaxSteps int64
}

// NewInterp allocates globals and evaluates their initializers.
func NewInterp(prog *Program) (*Interp, error) {
	in := &Interp{
		Prog:     prog,
		globals:  map[string]*cell{},
		Chans:    map[int64][]int64{},
		MaxSteps: 50_000_000,
	}
	for _, g := range prog.Globals {
		c := &cell{}
		if g.ArrayN > 0 {
			c.data = make([]int64, g.ArrayN)
			c.isArr = true
		} else {
			c.data = make([]int64, 1)
		}
		in.globals[g.Name] = c
	}
	for _, g := range prog.Globals {
		if g.Init != nil {
			env := &frame{in: in}
			v, err := in.eval(env, g.Init)
			if err != nil {
				return nil, err
			}
			in.globals[g.Name].data[0] = v.I
		}
	}
	return in, nil
}

// Global reads a scalar global.
func (in *Interp) Global(name string) (int64, error) {
	c, ok := in.globals[name]
	if !ok || c.isArr {
		return 0, fmt.Errorf("cir: no scalar global %q", name)
	}
	return c.data[0], nil
}

// SetGlobalArray copies vals into an array global.
func (in *Interp) SetGlobalArray(name string, vals []int64) error {
	c, ok := in.globals[name]
	if !ok || !c.isArr {
		return fmt.Errorf("cir: no array global %q", name)
	}
	if len(vals) > len(c.data) {
		return fmt.Errorf("cir: %d values exceed array %q of %d", len(vals), name, len(c.data))
	}
	copy(c.data, vals)
	return nil
}

// GlobalArray returns a copy of an array global.
func (in *Interp) GlobalArray(name string) ([]int64, error) {
	c, ok := in.globals[name]
	if !ok || !c.isArr {
		return nil, fmt.Errorf("cir: no array global %q", name)
	}
	out := make([]int64, len(c.data))
	copy(out, c.data)
	return out, nil
}

// frame is one function activation.
type frame struct {
	in     *Interp
	scopes []map[string]*cell
}

func (f *frame) push() { f.scopes = append(f.scopes, map[string]*cell{}) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) lookup(name string) *cell {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if c, ok := f.scopes[i][name]; ok {
			return c
		}
	}
	return f.in.globals[name]
}

func (f *frame) declare(d *VarDecl, init Value) {
	c := &cell{}
	if d.ArrayN > 0 {
		c.data = make([]int64, d.ArrayN)
		c.isArr = true
	} else {
		c.data = []int64{init.I}
		if init.IsPtr {
			// Pointer stored in a scalar cell is not representable;
			// pointers live in ptrVals.
			c.ptr = &init
			c.data[0] = 0
		}
	}
	f.scopes[len(f.scopes)-1][d.Name] = c
}

// Run calls main() with no arguments.
func (in *Interp) Run() error {
	_, err := in.Call("main")
	return err
}

// Call invokes a CIR function by name.
func (in *Interp) Call(fn string, args ...Value) (Value, error) {
	f := in.Prog.Func(fn)
	if f == nil {
		return Value{}, fmt.Errorf("cir: no function %q", fn)
	}
	if len(args) != len(f.Params) {
		return Value{}, fmt.Errorf("cir: %s wants %d args, got %d", fn, len(f.Params), len(args))
	}
	fr := &frame{in: in}
	fr.push()
	for i, p := range f.Params {
		fr.declare(p, args[i])
	}
	ret, v, err := in.execBlock(fr, f.Body)
	if err != nil {
		return Value{}, err
	}
	_ = ret
	return v, nil
}

func (in *Interp) step(line int) error {
	in.Steps++
	max := in.MaxSteps
	if max == 0 {
		max = 50_000_000
	}
	if in.Steps > max {
		return fmt.Errorf("cir: line %d: step limit exceeded (infinite loop?)", line)
	}
	return nil
}

func (in *Interp) execBlock(f *frame, b *Block) (bool, Value, error) {
	f.push()
	defer f.pop()
	for _, s := range b.Stmts {
		ret, v, err := in.exec(f, s)
		if err != nil || ret {
			return ret, v, err
		}
	}
	return false, Value{}, nil
}

func (in *Interp) exec(f *frame, s Stmt) (bool, Value, error) {
	if err := in.step(s.Pos()); err != nil {
		return false, Value{}, err
	}
	switch x := s.(type) {
	case *Block:
		return in.execBlock(f, x)
	case *DeclStmt:
		var init Value
		if x.Decl.Init != nil {
			v, err := in.eval(f, x.Decl.Init)
			if err != nil {
				return false, Value{}, err
			}
			init = v
		}
		f.declare(x.Decl, init)
	case *AssignStmt:
		rhs, err := in.eval(f, x.RHS)
		if err != nil {
			return false, Value{}, err
		}
		if err := in.assign(f, x.LHS, x.Op, rhs); err != nil {
			return false, Value{}, err
		}
	case *IfStmt:
		c, err := in.eval(f, x.Cond)
		if err != nil {
			return false, Value{}, err
		}
		if truthy(c) {
			return in.execBlock(f, x.Then)
		} else if x.Else != nil {
			return in.execBlock(f, x.Else)
		}
	case *WhileStmt:
		for {
			c, err := in.eval(f, x.Cond)
			if err != nil {
				return false, Value{}, err
			}
			if !truthy(c) {
				break
			}
			ret, v, err := in.execBlock(f, x.Body)
			if err != nil || ret {
				return ret, v, err
			}
			if err := in.step(x.Line); err != nil {
				return false, Value{}, err
			}
		}
	case *ForStmt:
		f.push()
		defer f.pop()
		if x.Init != nil {
			if ret, v, err := in.exec(f, x.Init); err != nil || ret {
				return ret, v, err
			}
		}
		for {
			if x.Cond != nil {
				c, err := in.eval(f, x.Cond)
				if err != nil {
					return false, Value{}, err
				}
				if !truthy(c) {
					break
				}
			}
			ret, v, err := in.execBlock(f, x.Body)
			if err != nil || ret {
				return ret, v, err
			}
			if x.Post != nil {
				if ret, v, err := in.exec(f, x.Post); err != nil || ret {
					return ret, v, err
				}
			}
			if err := in.step(x.Line); err != nil {
				return false, Value{}, err
			}
		}
	case *ReturnStmt:
		if x.Val != nil {
			v, err := in.eval(f, x.Val)
			return true, v, err
		}
		return true, Value{}, nil
	case *ExprStmt:
		_, err := in.eval(f, x.X)
		return false, Value{}, err
	}
	return false, Value{}, nil
}

func truthy(v Value) bool { return v.I != 0 }

// lvalue resolves an assignable expression to a storage slot.
func (in *Interp) lvalue(f *frame, e Expr) (*int64, error) {
	switch x := e.(type) {
	case *Ident:
		c := f.lookup(x.Name)
		if c == nil {
			return nil, fmt.Errorf("cir: line %d: undeclared %q", x.Line, x.Name)
		}
		if c.ptr != nil {
			return nil, fmt.Errorf("cir: line %d: cannot assign integer to pointer %q directly", x.Line, x.Name)
		}
		return &c.data[0], nil
	case *IndexExpr:
		base, err := in.eval(f, x.Base)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(f, x.Idx)
		if err != nil {
			return nil, err
		}
		if !base.IsPtr {
			return nil, fmt.Errorf("cir: line %d: indexing non-array value", x.Line)
		}
		off := base.Off + idx.I
		if off < 0 || off >= int64(len(base.Data)) {
			return nil, fmt.Errorf("cir: line %d: index %d out of bounds [0,%d)", x.Line, off, len(base.Data))
		}
		return &base.Data[off], nil
	case *UnaryExpr:
		if x.Op != "*" {
			return nil, fmt.Errorf("cir: line %d: not assignable", x.Line)
		}
		p, err := in.eval(f, x.X)
		if err != nil {
			return nil, err
		}
		if !p.IsPtr {
			return nil, fmt.Errorf("cir: line %d: dereference of non-pointer", x.Line)
		}
		if p.Off < 0 || p.Off >= int64(len(p.Data)) {
			return nil, fmt.Errorf("cir: line %d: pointer out of bounds", x.Line)
		}
		return &p.Data[p.Off], nil
	}
	return nil, fmt.Errorf("cir: line %d: not assignable", e.Pos())
}

func (in *Interp) assign(f *frame, lhs Expr, op string, rhs Value) error {
	// Whole-pointer assignment: p = &a[i] or p = q + n.
	if id, ok := lhs.(*Ident); ok && rhs.IsPtr && op == "=" {
		c := f.lookup(id.Name)
		if c == nil {
			return fmt.Errorf("cir: line %d: undeclared %q", id.Line, id.Name)
		}
		if !c.isArr {
			cp := rhs
			c.ptr = &cp
			return nil
		}
		return fmt.Errorf("cir: line %d: cannot assign pointer to array %q", id.Line, id.Name)
	}
	slot, err := in.lvalue(f, lhs)
	if err != nil {
		return err
	}
	switch op {
	case "=":
		*slot = rhs.I
	case "+=":
		*slot += rhs.I
	case "-=":
		*slot -= rhs.I
	case "*=":
		*slot *= rhs.I
	case "/=":
		if rhs.I == 0 {
			return fmt.Errorf("cir: line %d: division by zero", lhs.Pos())
		}
		*slot /= rhs.I
	case "%=":
		if rhs.I == 0 {
			return fmt.Errorf("cir: line %d: modulo by zero", lhs.Pos())
		}
		*slot %= rhs.I
	case "<<=":
		*slot <<= uint64(rhs.I) & 63
	case ">>=":
		*slot >>= uint64(rhs.I) & 63
	default:
		return fmt.Errorf("cir: line %d: unknown assignment op %q", lhs.Pos(), op)
	}
	return nil
}

func (in *Interp) eval(f *frame, e Expr) (Value, error) {
	switch x := e.(type) {
	case *IntLit:
		return IntV(x.Val), nil
	case *Ident:
		c := f.lookup(x.Name)
		if c == nil {
			return Value{}, fmt.Errorf("cir: line %d: undeclared %q", x.Line, x.Name)
		}
		if c.ptr != nil {
			return *c.ptr, nil
		}
		if c.isArr {
			// Arrays decay to pointers when used as values.
			return Value{IsPtr: true, Data: c.data}, nil
		}
		return IntV(c.data[0]), nil
	case *IndexExpr:
		slot, err := in.lvalue(f, x)
		if err != nil {
			return Value{}, err
		}
		return IntV(*slot), nil
	case *UnaryExpr:
		switch x.Op {
		case "&":
			switch t := x.X.(type) {
			case *Ident:
				c := f.lookup(t.Name)
				if c == nil {
					return Value{}, fmt.Errorf("cir: line %d: undeclared %q", t.Line, t.Name)
				}
				return Value{IsPtr: true, Data: c.data}, nil
			case *IndexExpr:
				base, err := in.eval(f, t.Base)
				if err != nil {
					return Value{}, err
				}
				idx, err := in.eval(f, t.Idx)
				if err != nil {
					return Value{}, err
				}
				if !base.IsPtr {
					return Value{}, fmt.Errorf("cir: line %d: '&' on non-array element", t.Line)
				}
				return Value{IsPtr: true, Data: base.Data, Off: base.Off + idx.I}, nil
			}
			return Value{}, fmt.Errorf("cir: line %d: bad '&' operand", x.Line)
		case "*":
			p, err := in.eval(f, x.X)
			if err != nil {
				return Value{}, err
			}
			if !p.IsPtr {
				return Value{}, fmt.Errorf("cir: line %d: dereference of non-pointer", x.Line)
			}
			if p.Off < 0 || p.Off >= int64(len(p.Data)) {
				return Value{}, fmt.Errorf("cir: line %d: pointer out of bounds", x.Line)
			}
			return IntV(p.Data[p.Off]), nil
		case "-":
			v, err := in.eval(f, x.X)
			if err != nil {
				return Value{}, err
			}
			return IntV(-v.I), nil
		case "!":
			v, err := in.eval(f, x.X)
			if err != nil {
				return Value{}, err
			}
			if v.I == 0 {
				return IntV(1), nil
			}
			return IntV(0), nil
		case "~":
			v, err := in.eval(f, x.X)
			if err != nil {
				return Value{}, err
			}
			return IntV(^v.I), nil
		}
		return Value{}, fmt.Errorf("cir: line %d: unknown unary %q", x.Line, x.Op)
	case *BinaryExpr:
		l, err := in.eval(f, x.L)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit logicals.
		switch x.Op {
		case "&&":
			if l.I == 0 {
				return IntV(0), nil
			}
			r, err := in.eval(f, x.R)
			if err != nil {
				return Value{}, err
			}
			return boolV(r.I != 0), nil
		case "||":
			if l.I != 0 {
				return IntV(1), nil
			}
			r, err := in.eval(f, x.R)
			if err != nil {
				return Value{}, err
			}
			return boolV(r.I != 0), nil
		}
		r, err := in.eval(f, x.R)
		if err != nil {
			return Value{}, err
		}
		// Pointer arithmetic: ptr +/- int.
		if l.IsPtr && !r.IsPtr && (x.Op == "+" || x.Op == "-") {
			off := r.I
			if x.Op == "-" {
				off = -off
			}
			return Value{IsPtr: true, Data: l.Data, Off: l.Off + off}, nil
		}
		switch x.Op {
		case "+":
			return IntV(l.I + r.I), nil
		case "-":
			return IntV(l.I - r.I), nil
		case "*":
			return IntV(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return Value{}, fmt.Errorf("cir: line %d: division by zero", x.Line)
			}
			return IntV(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return Value{}, fmt.Errorf("cir: line %d: modulo by zero", x.Line)
			}
			return IntV(l.I % r.I), nil
		case "<<":
			return IntV(l.I << (uint64(r.I) & 63)), nil
		case ">>":
			return IntV(l.I >> (uint64(r.I) & 63)), nil
		case "&":
			return IntV(l.I & r.I), nil
		case "|":
			return IntV(l.I | r.I), nil
		case "^":
			return IntV(l.I ^ r.I), nil
		case "==":
			return boolV(l.I == r.I), nil
		case "!=":
			return boolV(l.I != r.I), nil
		case "<":
			return boolV(l.I < r.I), nil
		case "<=":
			return boolV(l.I <= r.I), nil
		case ">":
			return boolV(l.I > r.I), nil
		case ">=":
			return boolV(l.I >= r.I), nil
		}
		return Value{}, fmt.Errorf("cir: line %d: unknown operator %q", x.Line, x.Op)
	case *CallExpr:
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(f, a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		if _, ok := Builtins[x.Fn]; ok {
			return in.builtin(x, args)
		}
		return in.Call(x.Fn, args...)
	}
	return Value{}, fmt.Errorf("cir: line %d: cannot evaluate %T", e.Pos(), e)
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}

func (in *Interp) builtin(x *CallExpr, args []Value) (Value, error) {
	switch x.Fn {
	case "print":
		in.Output = append(in.Output, args[0].I)
		return Value{}, nil
	case "abs":
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return IntV(v), nil
	case "min":
		if args[0].I < args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "max":
		if args[0].I > args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "clip":
		v := args[0].I
		if v < args[1].I {
			v = args[1].I
		}
		if v > args[2].I {
			v = args[2].I
		}
		return IntV(v), nil
	case "chan_send":
		id := args[0].I
		in.Chans[id] = append(in.Chans[id], args[1].I)
		return Value{}, nil
	case "chan_recv":
		id := args[0].I
		q := in.Chans[id]
		if len(q) == 0 {
			return Value{}, fmt.Errorf("cir: line %d: chan_recv(%d) on empty channel (run producers first)", x.Line, id)
		}
		in.Chans[id] = q[1:]
		return IntV(q[0]), nil
	}
	return Value{}, fmt.Errorf("cir: line %d: unknown builtin %q", x.Line, x.Fn)
}
