// Package cir implements the toolkit's C-subset intermediate
// representation. Sequential application code enters the MAPS-style
// flow (section IV of the paper) and the designer-controlled Source
// Recoder (section VI) in this form: a small but real imperative
// language with functions, integer scalars, arrays and restricted
// pointers, plus '#pragma maps' annotations for the lightweight
// real-time extensions the paper describes (period, deadline,
// preferred PE class).
//
// The package provides a lexer, recursive-descent parser, semantic
// checker, tree-walking interpreter (the golden-model oracle used to
// prove transformations behaviour-preserving), a source printer, and
// a static cost model.
package cir

import (
	"fmt"
	"strings"
)

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokPunct   // operators and punctuation
	TokKeyword // int, void, if, else, while, for, return
	TokPragma  // full '#pragma ...' line
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

var keywords = map[string]bool{
	"int": true, "void": true, "if": true, "else": true,
	"while": true, "for": true, "return": true,
}

// multi-character operators, longest first.
var punct2 = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
	"<<", ">>", "++", "--",
}

// Lex tokenizes src. It returns an error with line information for
// unrecognized characters.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(src)
	adv := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				adv(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			adv(2)
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				adv(1)
			}
			if i+1 >= n {
				return nil, fmt.Errorf("cir: line %d: unterminated block comment", line)
			}
			adv(2)
		case c == '#':
			start := i
			l0, c0 := line, col
			for i < n && src[i] != '\n' {
				adv(1)
			}
			text := strings.TrimSpace(src[start:i])
			if !strings.HasPrefix(text, "#pragma") {
				return nil, fmt.Errorf("cir: line %d: unsupported preprocessor directive %q", l0, text)
			}
			toks = append(toks, Token{Kind: TokPragma, Text: text, Line: l0, Col: c0})
		case isDigit(c):
			start := i
			l0, c0 := line, col
			for i < n && (isDigit(src[i]) || src[i] == 'x' || src[i] == 'X' ||
				(src[i] >= 'a' && src[i] <= 'f') || (src[i] >= 'A' && src[i] <= 'F')) {
				adv(1)
			}
			toks = append(toks, Token{Kind: TokInt, Text: src[start:i], Line: l0, Col: c0})
		case isAlpha(c):
			start := i
			l0, c0 := line, col
			for i < n && (isAlpha(src[i]) || isDigit(src[i])) {
				adv(1)
			}
			text := src[start:i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: l0, Col: c0})
		default:
			l0, c0 := line, col
			matched := false
			for _, p := range punct2 {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, Token{Kind: TokPunct, Text: p, Line: l0, Col: c0})
					adv(len(p))
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.ContainsRune("+-*/%<>=!&|^~()[]{},;", rune(c)) {
				toks = append(toks, Token{Kind: TokPunct, Text: string(c), Line: l0, Col: c0})
				adv(1)
			} else {
				return nil, fmt.Errorf("cir: line %d: unexpected character %q", line, c)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
