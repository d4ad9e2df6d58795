package mpsockit

// Documentation tests: the docs job in CI runs these. They keep the
// markdown honest — every relative link resolves, every fenced Go
// example stays gofmt-clean and parseable — and enforce the
// exported-comment discipline (revive's `exported` rule) on the
// packages the docs describe, without requiring revive itself.

import (
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpsockit/internal/paper"
)

// docFiles returns the repo's markdown files: everything at the root
// plus docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			// SNIPPETS.md and PAPERS.md quote external material
			// verbatim (exemplar code, abstracts) whose links point
			// into repos this one does not vendor.
			if m == "SNIPPETS.md" || m == "PAPERS.md" {
				continue
			}
			files = append(files, m)
		}
	}
	if len(files) < 3 {
		t.Fatalf("found only %d markdown files — run from the repo root", len(files))
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinks: every relative markdown link points at a file that
// exists (anchors are stripped; external URLs are skipped — CI has no
// business depending on the network).
func TestDocsLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not exist (%v)", file, m[1], err)
			}
		}
	}
}

// goFence extracts ```go fenced blocks.
var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

// TestDocsGoSnippets: fenced Go examples in the docs must parse and
// already be in canonical gofmt form — stale or hand-mangled examples
// fail the docs job instead of rotting silently.
func TestDocsGoSnippets(t *testing.T) {
	snippets := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range goFence.FindAllSubmatch(data, -1) {
			snippets++
			src := m[1]
			formatted, err := format.Source(src)
			if err != nil {
				t.Errorf("%s go snippet %d does not parse: %v", file, i+1, err)
				continue
			}
			if string(formatted) != string(src) {
				t.Errorf("%s go snippet %d is not gofmt-clean:\n--- have\n%s--- want\n%s", file, i+1, src, formatted)
			}
		}
	}
	if snippets == 0 {
		t.Fatal("no Go snippets found in docs — extraction regexp broken?")
	}
}

// TestExportedComments enforces revive's `exported` rule on the
// packages the exploration docs describe: every exported top-level
// declaration and method in internal/dse, internal/mapping and the
// coordinator packages needs a doc comment (grouped const/var/type
// specs may inherit the group's comment, as revive allows).
func TestExportedComments(t *testing.T) {
	for _, dir := range []string{"internal/dse", "internal/mapping", "internal/coord", "internal/coord/chaos", "internal/obs"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Name.IsExported() && d.Doc == nil {
							t.Errorf("%s: exported %s has no doc comment",
								fset.Position(d.Pos()), d.Name.Name)
						}
					case *ast.GenDecl:
						if d.Tok == token.IMPORT {
							continue
						}
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									t.Errorf("%s: exported type %s has no doc comment",
										fset.Position(s.Pos()), s.Name.Name)
								}
							case *ast.ValueSpec:
								for _, n := range s.Names {
									if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
										t.Errorf("%s: exported %s has no doc comment",
											fset.Position(n.Pos()), n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// flagDef matches a flag definition in a command's main.go.
var flagDef = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)\("([^"]+)"`)

// rowFlag matches a flag named in the first cell of a README table row.
var rowFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)")

// TestReadmeFlagTables: every flag cmd/dse and cmd/dsed define has a
// row in its README table, and every flag a row names is defined, so
// a flag added or deleted in main.go fails here until README follows.
func TestReadmeFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ main, heading string }{
		{"cmd/dse/main.go", "### `cmd/dse` flags"},
		{"cmd/dsed/main.go", "| `cmd/dsed` flag |"},
	} {
		src, err := os.ReadFile(c.main)
		if err != nil {
			t.Fatal(err)
		}
		defined := map[string]bool{}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		documented := map[string]bool{}
		for _, row := range tableRows(string(readme), c.heading) {
			first := strings.Split(row, "|")[1]
			for _, m := range rowFlag.FindAllStringSubmatch(first, -1) {
				documented[m[1]] = true
			}
		}
		if len(defined) == 0 || len(documented) == 0 {
			t.Fatalf("%s: found %d defined and %d documented flags — extraction broken?",
				c.main, len(defined), len(documented))
		}
		for name := range defined {
			if !documented[name] {
				t.Errorf("%s defines -%s, but its README table has no row for it", c.main, name)
			}
		}
		for name := range documented {
			if !defined[name] {
				t.Errorf("README documents -%s for %s, which does not define it", name, c.main)
			}
		}
	}
}

// tableRows returns the lines of the first markdown table at or after
// the line that starts with heading.
func tableRows(doc, heading string) []string {
	var rows []string
	found := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case !found:
			found = strings.HasPrefix(line, heading)
			if found && strings.HasPrefix(line, "|") {
				rows = append(rows, line)
			}
		case strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		case len(rows) > 0:
			return rows
		}
	}
	return rows
}

// testName matches a test named in a backticked cell.
var testName = regexp.MustCompile("`(Test[A-Za-z0-9_]+)`")

// testDecl matches a test function's declaration.
var testDecl = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(t \*testing\.T\)`)

// TestDocsPaperIndex: docs/paper.md has a row for every experiment of
// the internal/paper registry, and every test a row names exists.
func TestDocsPaperIndex(t *testing.T) {
	doc, err := os.ReadFile("docs/paper.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, build caches
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{}
	rows := tableRows(string(doc), "| Section |")
	if len(rows) < 3 {
		t.Fatalf("docs/paper.md: found %d index table lines — heading changed?", len(rows))
	}
	for _, row := range rows[2:] {
		cells := strings.Split(row, "|")
		if len(cells) != 6 {
			t.Fatalf("docs/paper.md row has %d cells, want 4: %s", len(cells)-2, row)
		}
		id := strings.TrimSpace(cells[3])
		indexed[id] = true
		names := testName.FindAllStringSubmatch(cells[4], -1)
		if len(names) == 0 {
			t.Errorf("docs/paper.md row %s names no test", id)
		}
		for _, m := range names {
			if !declared[m[1]] {
				t.Errorf("docs/paper.md row %s names %s, which no _test.go declares", id, m[1])
			}
		}
	}
	for _, e := range paper.All {
		if !indexed[e.ID] {
			t.Errorf("experiment %s has no row in docs/paper.md", e.ID)
		}
	}
}
