package dse

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAtomicWriteFile checks the durability contract: the target file
// either keeps its old content or carries the complete new content,
// never a torn mix, and a failed writer leaves no temp litter behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first\n" {
		t.Fatalf("content %q", got)
	}

	// Overwrite succeeds atomically.
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second, longer than before\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than before\n" {
		t.Fatalf("content after rewrite %q", got)
	}

	// A writer that fails mid-stream must not disturb the original.
	boom := errors.New("boom")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than before\n" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "out.jsonl" {
		t.Fatalf("temp litter left behind: %v", ents)
	}
}

// TestReadLogHeaderOnly checks that a header-only checkpoint log reads
// as its header with no results — what the coordinator's directory
// rescan sees for a sweep registered just before a crash.
func TestReadLogHeaderOnly(t *testing.T) {
	sw, err := ParseSweep("smoke", 7)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeader("smoke", 7, points, nil)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		return WriteHeader(w, h)
	}); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Header.Check(h); err != nil || len(lg.Results) != 0 || lg.Torn {
		t.Fatalf("read %+v (%v), want header %+v only", lg, err, h)
	}
	// The same sweep over another shard range is not this log's sweep.
	shard := h
	shard.Shard = &Shard{Lo: 0, Hi: 1}
	if err := lg.Header.Check(shard); err == nil || !strings.Contains(err.Error(), "shard range") {
		t.Fatalf("shard-range mismatch not reported: %v", err)
	}
	if lg, err := ReadLog(filepath.Join(t.TempDir(), "missing.jsonl")); lg != nil || err != nil {
		t.Fatalf("missing file read as %+v, %v; want no log", lg, err)
	}
}
