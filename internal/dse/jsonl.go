package dse

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// SchemaVersion identifies the JSONL sweep-file layout: a header line
// followed by one Result per line. Bump it whenever the Point or
// Metrics encoding changes incompatibly; merge and resume refuse
// files from another schema rather than silently misreading them.
const SchemaVersion = 1

// Header is the provenance record written as the first line of every
// sweep JSONL file, wrapped as {"header":{...}} so it can never be
// confused with a result line. It pins everything that must match for
// two files to be combinable: the schema version, the sweep spec and
// seed, the hash of the expanded point list (which changes if the
// expansion logic itself changes), the total point count, and — for a
// worker's lease checkpoint — which contiguous ID range the file
// covers. Resume and merge both validate it and fail loudly on
// mismatch instead of silently discarding or mixing foreign results.
type Header struct {
	// Schema is the file's SchemaVersion.
	Schema int `json:"schema"`
	// Spec is the sweep specification string the file was run with.
	Spec string `json:"spec"`
	// Seed is the sweep seed; all per-point seeds derive from it.
	Seed uint64 `json:"seed"`
	// SpecHash fingerprints the expanded point list (HashPoints).
	SpecHash string `json:"spec_hash"`
	// Points is the total point count of the full (unsharded) sweep.
	Points int `json:"points"`
	// Shard is the ID range this file covers; nil for an unsharded or
	// merged file, which covers all points.
	Shard *Shard `json:"shard,omitempty"`
}

// headerLine is the JSONL wrapper distinguishing the header from
// result lines.
type headerLine struct {
	Header *Header `json:"header"`
}

// HashPoints fingerprints an expanded point list: a SHA-256 over the
// schema version and the JSON encoding of every point (IDs, derived
// seeds, platform/workload/heuristic/fidelity axes), one line each,
// written by the result codec byte for byte as json.Encoder would.
// Two sweeps share a hash exactly when they expand to identical
// points, so the hash detects a different spec, a different seed, and
// — because the derived seeds are part of the encoding — a change to
// the expansion algorithm itself.
func HashPoints(points []Point) string {
	h := sha256.New()
	fmt.Fprintf(h, "dse-schema-%d\n", SchemaVersion)
	var line []byte
	for i := range points {
		// A point that does not encode (a PE class without a name;
		// expansion makes none) adds nothing, as with json.Encoder.
		var err error
		if line, err = appendPoint(line[:0], &points[i]); err == nil {
			h.Write(append(line, '\n'))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// NewHeader builds the header for a sweep over the given expanded
// points. Pass shard == nil for an unsharded run; merged files use
// the same nil-shard form, which is what makes a merged file
// byte-identical to an unsharded one.
func NewHeader(spec string, seed uint64, points []Point, shard *Shard) Header {
	return Header{
		Schema:   SchemaVersion,
		Spec:     spec,
		Seed:     seed,
		SpecHash: HashPoints(points),
		Points:   len(points),
		Shard:    shard,
	}
}

// Check reports whether h describes the same sweep as want — schema,
// spec, seed, spec hash, point count — and covers the same shard
// range, with a descriptive error naming the first mismatch. Resume
// paths check a file's header against the sweep they are about to
// continue; merge and workers check a header against their own local
// Expand of its spec, which is what catches engine drift.
func (h Header) Check(want Header) error {
	switch {
	case h.Schema != want.Schema:
		return fmt.Errorf("schema mismatch (%d vs %d)", h.Schema, want.Schema)
	case h.Spec != want.Spec:
		return fmt.Errorf("spec mismatch (%q vs %q)", h.Spec, want.Spec)
	case h.Seed != want.Seed:
		return fmt.Errorf("seed mismatch (%d vs %d)", h.Seed, want.Seed)
	case h.SpecHash != want.SpecHash:
		return fmt.Errorf("spec hash mismatch (%s vs %s)", h.SpecHash, want.SpecHash)
	case h.Points != want.Points:
		return fmt.Errorf("point count mismatch (%d vs %d)", h.Points, want.Points)
	case (h.Shard == nil) != (want.Shard == nil) || h.Shard != nil && *h.Shard != *want.Shard:
		return fmt.Errorf("shard range mismatch (%s vs %s)", shardLabel(h.Shard), shardLabel(want.Shard))
	}
	return nil
}

// shardLabel names a header's coverage for error messages.
func shardLabel(s *Shard) string {
	if s == nil {
		return "the full sweep"
	}
	return s.String()
}

// Expand parses and expands a sweep spec into its point list and its
// unsharded header. It is the one place a spec becomes points: the
// CLI, the coordinator and its workers, and shard merge all go
// through it, then compare headers with Check.
func Expand(spec string, seed uint64) ([]Point, Header, error) {
	sw, err := ParseSweep(spec, seed)
	if err != nil {
		return nil, Header{}, err
	}
	points, err := sw.Points()
	if err != nil {
		return nil, Header{}, err
	}
	return points, NewHeader(spec, seed, points, nil), nil
}

// WriteHeader writes the header as the file's first JSONL line.
func WriteHeader(w io.Writer, h Header) error {
	data, err := json.Marshal(headerLine{Header: &h})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteResult appends one result as a JSONL line. Encoding a Result
// is deterministic (fixed field order, no maps), so a sweep streamed
// through an ordered Engine.OnResult produces byte-identical files
// run-to-run for the same seed. The line is json.Marshal's bytes,
// written by the result codec into a pooled buffer.
func WriteResult(w io.Writer, r Result) error {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	line, err := appendResult((*buf)[:0], &r)
	if err != nil {
		return err
	}
	*buf = append(line, '\n')
	_, err = w.Write(*buf)
	return err
}

// lineBufs recycles WriteResult's line buffers across calls and
// goroutines.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// MatchPrefix returns the longest prefix of results that corresponds
// point-for-point to the expanded sweep — the reusable part of a
// checkpoint. A result matches when its embedded point (spec and
// seeds) is identical to the expansion, so a checkpoint from a
// different sweep, seed or engine version is discarded rather than
// silently merged.
func MatchPrefix(points []Point, results []Result) []Result {
	n := 0
	for n < len(results) && n < len(points) && results[n].Point.Equal(points[n]) {
		n++
	}
	return results[:n]
}

// MaxLineBytes caps one JSONL line (header or result). Real result
// lines are a few hundred bytes; the cap bounds memory when a crashed
// or foreign writer leaves megabytes of garbage in a file — an
// oversized line is consumed and discarded, never buffered whole.
const MaxLineBytes = 1 << 22

// readCappedLine reads one newline-delimited line from br, buffering
// at most MaxLineBytes of it. It returns the line without its newline,
// whether the cap was exceeded (the rest of the line is consumed and
// dropped), and whether the file ended before a newline (a torn final
// line — or clean EOF when the returned line is empty).
func readCappedLine(br *bufio.Reader) (line []byte, tooLong, noNewline bool, err error) {
	for {
		frag, err := br.ReadSlice('\n')
		if !tooLong {
			line = append(line, frag...)
			if len(line) > MaxLineBytes {
				tooLong, line = true, nil
			}
		}
		switch err {
		case nil:
			if !tooLong {
				line = line[:len(line)-1]
			}
			return line, tooLong, false, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return line, tooLong, true, nil
		default:
			return nil, false, false, err
		}
	}
}

// atEOF reports whether no bytes remain in br.
func atEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}

// Log is one parsed sweep JSONL file: its header, the result lines
// that decoded, and their original bytes (merge and the coordinator
// re-emit those, so combined output stays byte-identical even if a
// future encoder would format a float differently).
type Log struct {
	// Header is the file's provenance line.
	Header Header
	// Results holds the decoded result lines in file order.
	Results []Result
	// Raw holds each result line's bytes, without the newline.
	Raw [][]byte
	// Torn is set when a damaged final line was dropped. Resume paths
	// accept that (a crash mid-append tears exactly the tail); a file
	// that claims to be complete — a shard offered for merging — does
	// not.
	Torn bool
}

// ReadLog reads a sweep JSONL file: a mandatory header line, then one
// result per line. It has one damage policy. A final line that lacks
// its newline, does not decode, or exceeds MaxLineBytes is dropped and
// Torn is set; the same damage with data after it is corruption no
// crash produces, and is an error rather than a silent truncation. A
// missing or zero-byte file reads as a nil Log and no error — an empty
// checkpoint for resume, an error for callers that need a file.
// Memory stays bounded by MaxLineBytes per line however large the
// damage.
func ReadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	line, tooLong, noNewline, err := readCappedLine(br)
	if err != nil {
		return nil, err
	}
	if noNewline && len(line) == 0 && !tooLong {
		return nil, nil
	}
	var hl headerLine
	if tooLong || json.Unmarshal(line, &hl) != nil || hl.Header == nil {
		return nil, fmt.Errorf("dse: %s has no header line (pre-schema file or torn header)", path)
	}
	lg := &Log{Header: *hl.Header}
	for lineNo := 2; ; lineNo++ {
		line, tooLong, noNewline, err := readCappedLine(br)
		if err != nil {
			return nil, err
		}
		if noNewline && len(line) == 0 && !tooLong {
			return lg, nil
		}
		var r Result
		reason := ""
		if tooLong {
			reason = fmt.Sprintf("exceeds the %d MiB line cap", MaxLineBytes>>20)
		} else if noNewline {
			reason = "no trailing newline"
		} else if r, err = DecodeResult(line); err != nil {
			reason = err.Error()
		}
		if reason != "" {
			if noNewline || atEOF(br) {
				lg.Torn = true
				return lg, nil
			}
			return nil, fmt.Errorf("dse: %s line %d is corrupt mid-file (%s); a crash only tears the final line — refusing to salvage, inspect or delete the file", path, lineNo, reason)
		}
		lg.Results = append(lg.Results, r)
		lg.Raw = append(lg.Raw, line) // readCappedLine returns a fresh slice
	}
}

// MergeShards validates and merges a complete set of sweep files into
// one sweep: a finished file, or a coordinator log plus the lease
// checkpoints its workers wrote (each a shard file). Every file must
// be complete (no torn final line) and its header must Check against
// the local Expand of the first file's spec and seed, shard range
// aside — so shards from another sweep, and shards run with a drifted
// engine, both fail rather than producing a file nothing else can
// reproduce. Results go into one Accumulator, which drops
// byte-identical duplicates, refuses conflicting ones and checks
// every line against the expansion; the union must cover the full
// sweep, and a missing shard is reported by its missing ID range. The
// returned header is the unsharded one, so Accumulator.WriteTo writes
// a file byte-identical to an unsharded run.
func MergeShards(paths []string) (*Accumulator, Header, error) {
	if len(paths) == 0 {
		return nil, Header{}, fmt.Errorf("dse: no shard files to merge")
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	logs := make([]*Log, len(sorted))
	for i, p := range sorted {
		lg, err := ReadLog(p)
		switch {
		case err != nil:
			return nil, Header{}, err
		case lg == nil:
			return nil, Header{}, fmt.Errorf("dse: shard %s is missing or empty (no header line)", p)
		case lg.Torn:
			return nil, Header{}, fmt.Errorf("dse: shard %s has a malformed final line (torn write?); a shard offered for merging must be complete", p)
		}
		logs[i] = lg
	}
	first := logs[0].Header
	points, h, err := Expand(first.Spec, first.Seed)
	if err != nil {
		return nil, Header{}, fmt.Errorf("dse: shard header spec does not parse: %w", err)
	}
	acc := NewAccumulator(points)
	for i, lg := range logs {
		s := lg.Header.Shard
		unsharded := lg.Header
		unsharded.Shard = nil
		if err := unsharded.Check(h); err != nil {
			return nil, Header{}, fmt.Errorf("dse: shard %s does not match the local expansion of %q seed %d (%v): a different sweep, or engine drift", sorted[i], h.Spec, h.Seed, err)
		}
		for j, r := range lg.Results {
			if s != nil && (r.Point.ID < s.Lo || r.Point.ID >= s.Hi) {
				return nil, Header{}, fmt.Errorf("dse: shard %s carries point ID %d outside its declared range %v", sorted[i], r.Point.ID, *s)
			}
			if _, err := acc.AddResult(r, lg.Raw[j]); err != nil {
				return nil, Header{}, fmt.Errorf("shard %s: %w (conflicting shards?)", sorted[i], err)
			}
		}
	}
	if missing, firstMissing := acc.Missing(); missing > 0 {
		return nil, Header{}, fmt.Errorf("dse: merge is missing %d of %d points (first missing ID %d) — is a shard file absent from the glob?",
			missing, len(points), firstMissing)
	}
	return acc, h, nil
}

// countWriter counts bytes written through it (io.WriterTo contract).
type countWriter struct {
	w io.Writer
	n int64
}

// Write forwards to the wrapped writer and tallies bytes.
func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
