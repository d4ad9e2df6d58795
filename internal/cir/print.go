package cir

import (
	"fmt"
	"strings"
)

// Print renders a Program back to CIR source. The Source Recoder's
// code generator uses this to synchronize the AST back into the
// designer's document (figure 3 of the paper: "a Code Generator
// synchronizes changes in the AST to the document object").
func Print(p *Program) string {
	var b strings.Builder
	for _, g := range p.Globals {
		b.WriteString(printVarDecl(g))
		b.WriteString(";\n")
	}
	if len(p.Globals) > 0 {
		b.WriteString("\n")
	}
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteString("\n")
		}
		printFunc(&b, f)
	}
	return b.String()
}

func printVarDecl(d *VarDecl) string {
	var b strings.Builder
	b.WriteString("int ")
	if d.IsPtr {
		b.WriteString("*")
	}
	b.WriteString(d.Name)
	if d.ArrayN > 0 {
		fmt.Fprintf(&b, "[%d]", d.ArrayN)
	}
	if d.Init != nil {
		b.WriteString(" = ")
		b.WriteString(PrintExpr(d.Init))
	}
	return b.String()
}

func printFunc(b *strings.Builder, f *FuncDecl) {
	for _, pr := range f.Pragmas {
		b.WriteString("#pragma maps")
		for _, k := range pr.Order {
			v := pr.Keys[k]
			if v == "" {
				fmt.Fprintf(b, " %s", k)
			} else {
				fmt.Fprintf(b, " %s=%s", k, v)
			}
		}
		b.WriteString("\n")
	}
	ret := "void"
	if f.Ret {
		ret = "int"
	}
	fmt.Fprintf(b, "%s %s(", ret, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("int ")
		if p.IsPtr {
			b.WriteString("*")
		}
		b.WriteString(p.Name)
	}
	b.WriteString(") ")
	printBlock(b, f.Body, 0)
	b.WriteString("\n")
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		printStmt(b, s, depth+1)
	}
	indent(b, depth)
	b.WriteString("}")
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch x := s.(type) {
	case *Block:
		printBlock(b, x, depth)
		b.WriteString("\n")
	case *DeclStmt:
		b.WriteString(printVarDecl(x.Decl))
		b.WriteString(";\n")
	case *AssignStmt:
		fmt.Fprintf(b, "%s %s %s;\n", PrintExpr(x.LHS), x.Op, PrintExpr(x.RHS))
	case *IfStmt:
		fmt.Fprintf(b, "if (%s) ", PrintExpr(x.Cond))
		printBlock(b, x.Then, depth)
		if x.Else != nil {
			b.WriteString(" else ")
			printBlock(b, x.Else, depth)
		}
		b.WriteString("\n")
	case *WhileStmt:
		fmt.Fprintf(b, "while (%s) ", PrintExpr(x.Cond))
		printBlock(b, x.Body, depth)
		b.WriteString("\n")
	case *ForStmt:
		b.WriteString("for (")
		if x.Init != nil {
			b.WriteString(printSimple(x.Init))
		}
		b.WriteString("; ")
		if x.Cond != nil {
			b.WriteString(PrintExpr(x.Cond))
		}
		b.WriteString("; ")
		if x.Post != nil {
			b.WriteString(printSimple(x.Post))
		}
		b.WriteString(") ")
		printBlock(b, x.Body, depth)
		b.WriteString("\n")
	case *ReturnStmt:
		if x.Val != nil {
			fmt.Fprintf(b, "return %s;\n", PrintExpr(x.Val))
		} else {
			b.WriteString("return;\n")
		}
	case *ExprStmt:
		fmt.Fprintf(b, "%s;\n", PrintExpr(x.X))
	}
}

// printSimple renders a statement without trailing semicolon/newline
// (for-clause position).
func printSimple(s Stmt) string {
	switch x := s.(type) {
	case *DeclStmt:
		return printVarDecl(x.Decl)
	case *AssignStmt:
		return fmt.Sprintf("%s %s %s", PrintExpr(x.LHS), x.Op, PrintExpr(x.RHS))
	case *ExprStmt:
		return PrintExpr(x.X)
	}
	return "/*?*/"
}

// PrintExpr renders an expression with minimal but safe
// parenthesization.
func PrintExpr(e Expr) string {
	return printExprPrec(e, 0)
}

func printExprPrec(e Expr, parent int) string {
	switch x := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", x.Val)
	case *Ident:
		return x.Name
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", printExprPrec(x.Base, 11), PrintExpr(x.Idx))
	case *UnaryExpr:
		return fmt.Sprintf("%s%s", x.Op, printExprPrec(x.X, 11))
	case *BinaryExpr:
		prec := binPrec[x.Op]
		s := fmt.Sprintf("%s %s %s",
			printExprPrec(x.L, prec), x.Op, printExprPrec(x.R, prec+1))
		if prec < parent {
			return "(" + s + ")"
		}
		return s
	case *CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = PrintExpr(a)
		}
		return fmt.Sprintf("%s(%s)", x.Fn, strings.Join(args, ", "))
	}
	return "/*?*/"
}
