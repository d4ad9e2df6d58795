// Command reach fails when a Go module declares a function that none
// of its binaries links. It reads every function and method declared
// in the module's non-test files, reads the text symbols of each given
// binary with `go tool nm`, and reports:
//
//   - a declared function that no binary links and the allowlist does
//     not name;
//   - an allowlist entry that is stale: its function is no longer
//     declared, or a binary now links it.
//
// Build the binaries with inlining off (-gcflags=all=-l), so that every
// function a binary calls keeps its own symbol:
//
//	go build -gcflags=all=-l -o /tmp/reach/ ./cmd/... ./examples/...
//	(cd perfbench && go build -gcflags=all=-l -o /tmp/reach/perfbench .)
//	cd tools/reach && go run . ../.. allowlist.txt /tmp/reach/*
//
// Names are compared in one canonical form, pkgpath.Func or
// pkgpath.Type.Method: pointer receivers, type arguments (nm writes
// f[go.shape.int]) and the numbers of init functions (init.0) are
// dropped, and a binary's main.X symbols belong to the main package
// its build information names. Nested modules (directories with their
// own go.mod) and testdata directories are not part of the module.
//
// Each allowlist line is a canonical name and the reason it stays;
// '#' starts a comment.
package main

import (
	"bufio"
	"debug/buildinfo"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 4 {
		fmt.Fprintln(os.Stderr, "usage: reach MODULE_ROOT ALLOWLIST BINARY...")
		os.Exit(2)
	}
	problems, err := run(os.Args[1], os.Args[2], os.Args[3:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("reach: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// run checks the module at root against the binaries and returns one
// line per problem. It writes a one-line summary to w.
func run(root, allowPath string, bins []string, w io.Writer) ([]string, error) {
	decls, err := declared(root)
	if err != nil {
		return nil, err
	}
	links := map[string]bool{}
	for _, bin := range bins {
		if err := linked(bin, links); err != nil {
			return nil, err
		}
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}
	problems := check(decls, links, allow)
	fmt.Fprintf(w, "reach: %d functions declared, %d allowlisted, %d binaries\n", len(decls), len(allow), len(bins))
	return problems, nil
}

// check returns one line per declared function that no binary links
// and the allowlist does not name, and one per stale allowlist entry,
// sorted.
func check(decls map[string]string, links map[string]bool, allow map[string]string) []string {
	var out []string
	for name, pos := range decls {
		if !links[name] && allow[name] == "" {
			out = append(out, fmt.Sprintf("%s: %s is linked by no binary", pos, name))
		}
	}
	for name := range allow {
		switch {
		case decls[name] == "":
			out = append(out, fmt.Sprintf("allowlist: %s is not declared", name))
		case links[name]:
			out = append(out, fmt.Sprintf("allowlist: %s is linked by a binary", name))
		}
	}
	sort.Strings(out)
	return out
}

// declared maps the canonical name of every function and method in the
// non-test files of the module at root to its position.
func declared(root string) (map[string]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	decls := map[string]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir, file := filepath.Split(p)
		if ok, err := build.Default.MatchFile(dir, file); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(modPath, filepath.ToSlash(rel))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			pos := fset.Position(fn.Pos())
			relFile, _ := filepath.Rel(root, pos.Filename)
			decls[name] = fmt.Sprintf("%s:%d", filepath.ToSlash(relFile), pos.Line)
		}
		return nil
	})
	return decls, err
}

// recvName is a receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// linked adds the canonical name of every function symbol in bin to
// links.
func linked(bin string, links map[string]bool) error {
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		links[canonical(strings.Join(f[2:], " "), info.Path)] = true
	}
	return nil
}

// canonical writes a symbol name as declared() names the declaration:
// main.X becomes mainPath.X, pkg.(*T[go.shape.int]).M becomes pkg.T.M,
// pkg.init.0 becomes pkg.init, and a method value's -fm suffix goes.
func canonical(sym, mainPath string) string {
	if strings.HasPrefix(sym, "main.") {
		sym = mainPath + sym[len("main"):]
	}
	pkgEnd := strings.LastIndex(sym, "/") + 1
	if dot := strings.Index(sym[pkgEnd:], "."); dot >= 0 {
		pkgEnd += dot
	} else {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym[pkgEnd:] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	name := strings.TrimSuffix(b.String(), "-fm")
	if rest, ok := strings.CutPrefix(name, ".init."); ok && strings.Trim(rest, "0123456789") == "" {
		name = ".init"
	}
	return sym[:pkgEnd] + name
}

// readAllow reads an allowlist: each line is a canonical name and a
// reason, '#' starts a comment. An entry without a reason is an error.
func readAllow(p string) (map[string]string, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		reason = strings.TrimSpace(reason)
		switch {
		case name == "":
			continue
		case reason == "":
			return nil, fmt.Errorf("%s:%d: %s has no reason", p, n, name)
		case allow[name] != "":
			return nil, fmt.Errorf("%s:%d: %s is listed twice", p, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}
