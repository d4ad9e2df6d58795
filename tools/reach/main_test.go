package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const fixture = "testdata/fixture"

// buildFixture builds the fixture's one binary as CI builds the
// repository's: inlining off.
func buildFixture(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "app")
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./cmd/app")
	cmd.Dir = fixture
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build fixture: %v\n%s", err, out)
	}
	return bin
}

func writeAllow(t *testing.T, lines ...string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFixture: the planted function reached only by its test is the
// one problem; generic instances, numbered init functions, main's
// functions, test-file helpers, a nested module and an allowlisted
// function are not.
func TestFixture(t *testing.T) {
	bin := buildFixture(t)
	problems, err := run(fixture, filepath.Join(fixture, "allow.txt"), []string{bin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib/lib.go:26: example.com/fixture/lib.OnlyTested is linked by no binary"}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems %q, want %q", problems, want)
	}
}

// TestStaleAllowlist: an entry for a function a binary links, or for
// one no longer declared, fails.
func TestStaleAllowlist(t *testing.T) {
	bin := buildFixture(t)
	allow := writeAllow(t,
		"example.com/fixture/lib.Listed kept",
		"example.com/fixture/lib.OnlyTested kept",
		"example.com/fixture/lib.Used linked since",
		"example.com/fixture/lib.Gone deleted since",
	)
	problems, err := run(fixture, allow, []string{bin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist: example.com/fixture/lib.Gone is not declared",
		"allowlist: example.com/fixture/lib.Used is linked by a binary",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems %q, want %q", problems, want)
	}
}

// TestAllowlistNeedsReason: every entry says why it stays.
func TestAllowlistNeedsReason(t *testing.T) {
	for _, lines := range [][]string{
		{"example.com/fixture/lib.Listed"},
		{"example.com/fixture/lib.Listed # a comment is no reason"},
		{"example.com/fixture/lib.Listed kept", "example.com/fixture/lib.Listed twice"},
	} {
		if _, err := readAllow(writeAllow(t, lines...)); err == nil {
			t.Errorf("allowlist %q accepted", lines)
		}
	}
}

func TestCanonical(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"main.run", "example.com/fixture/cmd/app.run"},
		{"example.com/fixture/lib.Used", "example.com/fixture/lib.Used"},
		{"example.com/fixture/lib.store[go.shape.int]", "example.com/fixture/lib.store"},
		{"example.com/fixture/lib.store[go.shape.map[string]int]", "example.com/fixture/lib.store"},
		{"example.com/fixture/lib.(*Box[go.shape.string]).Get", "example.com/fixture/lib.Box.Get"},
		{"example.com/fixture/lib.(*T).M", "example.com/fixture/lib.T.M"},
		{"example.com/fixture/lib.T.M-fm", "example.com/fixture/lib.T.M"},
		{"example.com/fixture/lib.init.0", "example.com/fixture/lib.init"},
		{"example.com/fixture/lib.init.12", "example.com/fixture/lib.init"},
		{"example.com/fixture/lib.init.0.func1", "example.com/fixture/lib.init.0.func1"},
		{"example.com/fixture/lib.Used.func2", "example.com/fixture/lib.Used.func2"},
		{"runtime.main", "runtime.main"},
	} {
		if got := canonical(c.sym, "example.com/fixture/cmd/app"); got != c.want {
			t.Errorf("canonical(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}
