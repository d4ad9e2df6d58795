// Package golden pins a command's output in a committed file. Run a
// test with -update-golden to rewrite the files it checks, as
// internal/dse's golden tests do; a rewrite is a deliberate change
// that the commit calls out.
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite the golden files instead of comparing with them")

// Run calls a command's run(args, stdout) and fails t unless what it
// printed equals the file at path.
func Run(t *testing.T, path string, run func([]string, io.Writer) error, args ...string) {
	t.Helper()
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output drifted from %s. If intentional, regenerate with -update-golden and call the change out.\n--- got ---\n%s--- want ---\n%s",
			path, got.Bytes(), want)
	}
}
