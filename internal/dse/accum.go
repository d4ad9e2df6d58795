package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Accumulator collects a sweep's results incrementally, in any order
// and from any number of sources — sweep files, coordinator workers,
// checkpoint replays — while enforcing the determinism contract that
// makes retry and duplication safe: every line is validated against
// the expanded point list (a result for a foreign or drifted point is
// an error, not a silent merge), byte-identical duplicates are
// dropped and counted, and conflicting bytes for the same point ID
// are a loud error. Because validation is per line, an Accumulator is
// exactly the idempotent receive side a fault-tolerant coordinator
// needs: a worker can die after submitting, its lease can be reissued,
// and the late or repeated lines land as duplicates instead of
// corruption.
//
// The zero Accumulator is not usable; construct with NewAccumulator.
// Methods are not safe for concurrent use — callers serialize (the
// coordinator holds its own lock).
type Accumulator struct {
	points  []Point
	raw     [][]byte
	results []Result
	done    int
	dups    int
}

// NewAccumulator builds an empty accumulator over the expanded point
// list the incoming results must match.
func NewAccumulator(points []Point) *Accumulator {
	return &Accumulator{
		points:  points,
		raw:     make([][]byte, len(points)),
		results: make([]Result, len(points)),
	}
}

// DecodeResult parses one JSONL result line. It is Add's decode step
// on its own, so a caller that must not decode while holding a lock
// (the coordinator) can decode first and AddResult later. A line in
// the layout WriteResult writes takes the reflection-free codec; any
// other line is decoded by json.Unmarshal, whose value and error the
// codec's matches exactly where both apply.
func DecodeResult(line []byte) (Result, error) {
	if r, ok := decodeResult(line); ok {
		return r, nil
	}
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		return Result{}, fmt.Errorf("dse: malformed result line: %w", err)
	}
	return r, nil
}

// AddResult accepts one already-decoded result together with its
// original line bytes (which are what merged output re-emits, so the
// final file is byte-identical to the producing run). Semantics match
// Add.
func (a *Accumulator) AddResult(r Result, line []byte) (added bool, err error) {
	id := r.Point.ID
	if id < 0 || id >= len(a.points) {
		return false, fmt.Errorf("dse: result for point ID %d outside the sweep (0..%d)", id, len(a.points)-1)
	}
	if !r.Point.Equal(a.points[id]) {
		return false, fmt.Errorf("dse: result for point %d does not match the spec expansion", id)
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	if prev := a.raw[id]; prev != nil {
		if !bytes.Equal(prev, line) {
			return false, fmt.Errorf("dse: point %d has conflicting results (resubmitted bytes disagree with the accepted line)", id)
		}
		a.dups++
		return false, nil
	}
	a.raw[id] = append([]byte(nil), line...)
	a.results[id] = r
	a.done++
	return true, nil
}

// Has reports whether a result for the point ID has been accepted.
func (a *Accumulator) Has(id int) bool {
	return id >= 0 && id < len(a.raw) && a.raw[id] != nil
}

// Raw returns the accepted line bytes for the point ID (without the
// trailing newline), or nil when the point has no result yet.
func (a *Accumulator) Raw(id int) []byte {
	if id < 0 || id >= len(a.raw) {
		return nil
	}
	return a.raw[id]
}

// Done returns the number of distinct points accepted so far.
func (a *Accumulator) Done() int { return a.done }

// Total returns the sweep's point count.
func (a *Accumulator) Total() int { return len(a.points) }

// Duplicates returns how many byte-identical duplicate lines were
// dropped.
func (a *Accumulator) Duplicates() int { return a.dups }

// Complete reports whether every point has a result.
func (a *Accumulator) Complete() bool { return a.done == len(a.points) }

// Missing returns how many points still lack a result and the lowest
// missing point ID (-1 when complete).
func (a *Accumulator) Missing() (count, firstID int) {
	firstID = -1
	for id, raw := range a.raw {
		if raw == nil {
			count++
			if firstID < 0 {
				firstID = id
			}
		}
	}
	return count, firstID
}

// Results returns the full result slice indexed by point ID. Entries
// for points without an accepted result are zero; call Complete (or
// Missing) first when totality matters.
func (a *Accumulator) Results() []Result { return a.results }

// Completed returns the accepted results in point-ID order, skipping
// missing points — the input for live Pareto-front and hypervolume
// snapshots while a sweep is still running (GroupedFront and
// Hypervolumes are well-defined on any subset; fronts only tighten as
// results arrive).
func (a *Accumulator) Completed() []Result {
	out := make([]Result, 0, a.done)
	for id, raw := range a.raw {
		if raw != nil {
			out = append(out, a.results[id])
		}
	}
	return out
}

// WriteTo streams the accumulated sweep — the header followed by
// every accepted line in point-ID order, using the original bytes —
// to w. For a complete accumulator fed by workers of any number,
// schedule or failure history, the output is byte-identical to a
// fault-free single-worker run of the same spec and seed.
func (a *Accumulator) WriteTo(w io.Writer, h Header) (int64, error) {
	cw := &countWriter{w: w}
	if err := WriteHeader(cw, h); err != nil {
		return cw.n, err
	}
	for _, line := range a.raw {
		if line == nil {
			continue
		}
		if _, err := cw.Write(line); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write([]byte{'\n'}); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}
