package coord

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"mpsockit/internal/dse"
)

// sweep is the server-side record of one tenant sweep. Every mutable
// field is guarded by the owning Server's mutex; the sweep carries its
// own accumulator, lease table and checkpoint log so tenants share
// nothing but the scheduler — a cancelled or crashed-out sweep cannot
// corrupt a neighbour.
type sweep struct {
	id        string
	header    dse.Header
	points    []dse.Point
	costs     []float64
	totalCost float64

	acc   *dse.Accumulator
	table *leaseTable
	// state is SweepActive, SweepDone or SweepCancelled.
	state      string
	registered time.Time
	finished   time.Time

	// ckptPath is the sweep's on-disk JSONL log ("" disables
	// persistence). While active it is an append-only log of accepted
	// lines in acceptance order; completion atomically rewrites it into
	// the canonical point-ordered final bytes and cancellation removes
	// it.
	ckptPath  string
	ckptFile  *os.File
	ckpt      *bufio.Writer
	ckptBytes int64

	// debt is the fair-scheduling deficit in EstCost units (sched.go).
	debt float64

	// frontAt is the Done count at the last live-front log line.
	// baseDone/baseCost anchor rates: work resumed from the checkpoint
	// is not claimed as this process's progress.
	frontAt  int
	baseDone int
	baseCost float64

	// done closes when the sweep reaches a terminal state.
	done chan struct{}
}

// newSweep builds the in-memory record for an expanded sweep. The
// caller attaches the lease table (it needs server-level knobs) and
// the checkpoint log.
func newSweep(header dse.Header, points []dse.Point, now time.Time) *sweep {
	sw := &sweep{
		id:         SweepID(header),
		header:     header,
		points:     points,
		costs:      make([]float64, len(points)),
		acc:        dse.NewAccumulator(points),
		state:      SweepActive,
		registered: now,
		done:       make(chan struct{}),
	}
	for i, p := range points {
		sw.costs[i] = dse.EstCost(p)
		sw.totalCost += sw.costs[i]
	}
	return sw
}

// readSweepLog reads a sweep's checkpoint log for resume. A torn tail
// is salvaged (its point is simply leased again); a header for another
// sweep, or damage before the final line, is an error. A missing or
// empty log — "" names none — is nil: nothing to resume.
func readSweepLog(path string, want dse.Header) (*dse.Log, error) {
	lg, err := dse.ReadLog(path)
	if err != nil {
		return nil, fmt.Errorf("coord: resume %s: %w", path, err)
	}
	if lg != nil {
		if err := lg.Header.Check(want); err != nil {
			return nil, fmt.Errorf("coord: checkpoint %s is from a different sweep (%v); refusing to resume", path, err)
		}
	}
	return lg, nil
}

// openCheckpoint (re)writes the sweep's log cleanly — header plus the
// currently accepted lines — and opens it for appending. The rewrite
// is atomic (temp file + fsync + rename), so a crash mid-rewrite
// leaves the previous log intact instead of a torn mid-file line the
// salvage path (built for torn tails) would refuse; and a salvaged
// torn tail never remains in a file about to be appended to.
func (sw *sweep) openCheckpoint() error {
	if sw.ckptPath == "" {
		return nil
	}
	err := dse.AtomicWriteFile(sw.ckptPath, func(w io.Writer) error {
		if err := dse.WriteHeader(w, sw.header); err != nil {
			return err
		}
		for _, r := range sw.acc.Completed() {
			if _, err := w.Write(sw.acc.Raw(r.Point.ID)); err != nil {
				return err
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(sw.ckptPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	sw.ckptFile = f
	sw.ckpt = bufio.NewWriter(f)
	sw.ckptBytes = st.Size()
	return nil
}

// appendCheckpoint writes the accepted line for point id to the log.
func (sw *sweep) appendCheckpoint(id int) error {
	if sw.ckpt == nil {
		return nil
	}
	line := sw.acc.Raw(id)
	if line == nil {
		return fmt.Errorf("coord: no accepted line for point %d", id)
	}
	if _, err := sw.ckpt.Write(line); err != nil {
		return err
	}
	_, err := sw.ckpt.Write([]byte{'\n'})
	sw.ckptBytes += int64(len(line)) + 1
	return err
}

// flushCheckpoint pushes buffered log lines to the OS.
func (sw *sweep) flushCheckpoint() error {
	if sw.ckpt == nil {
		return nil
	}
	return sw.ckpt.Flush()
}

// closeCheckpoint flushes and closes the log file handle.
func (sw *sweep) closeCheckpoint() error {
	if sw.ckpt == nil {
		return nil
	}
	ferr := sw.ckpt.Flush()
	cerr := sw.ckptFile.Close()
	sw.ckpt, sw.ckptFile = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// writeFinal writes the sweep's canonical final bytes: header plus
// every accepted line in point-ID order — byte-identical to a
// fault-free standalone run. It fails while points are missing.
func (sw *sweep) writeFinal(w io.Writer) error {
	if !sw.acc.Complete() {
		missing, first := sw.acc.Missing()
		return fmt.Errorf("coord: sweep incomplete: %d of %d points missing (first ID %d)", missing, len(sw.points), first)
	}
	_, err := sw.acc.WriteTo(w, sw.header)
	return err
}

// finalizeFile atomically replaces a completed sweep's append-order
// log with its writeFinal bytes — exactly what GET /sweeps/{id}/result
// serves and what dsed writes to -out. Because the bytes are
// deterministic, re-finalizing after a crash-and-restart is a no-op
// rewrite of identical content.
func (sw *sweep) finalizeFile() error {
	if sw.ckptPath == "" {
		return nil
	}
	if err := dse.AtomicWriteFile(sw.ckptPath, sw.writeFinal); err != nil {
		return err
	}
	if st, err := os.Stat(sw.ckptPath); err == nil {
		sw.ckptBytes = st.Size()
	}
	return nil
}

// removeFile deletes the sweep's on-disk log (cancellation reclaims
// its disk budget). Missing files are fine.
func (sw *sweep) removeFile() {
	if sw.ckptPath != "" {
		os.Remove(sw.ckptPath)
	}
	sw.ckptBytes = 0
}

// remainingCost sums the EstCost of points without an accepted result.
func (sw *sweep) remainingCost() float64 {
	rem := 0.0
	for i := range sw.points {
		if !sw.acc.Has(i) {
			rem += sw.costs[i]
		}
	}
	return rem
}

// status snapshots the sweep's registry row. Caller holds the server
// mutex.
func (sw *sweep) status() SweepStatus {
	return SweepStatus{
		ID:              sw.id,
		Spec:            sw.header.Spec,
		Seed:            sw.header.Seed,
		SpecHash:        sw.header.SpecHash,
		State:           sw.state,
		Done:            sw.acc.Done(),
		Total:           sw.acc.Total(),
		Duplicates:      sw.acc.Duplicates(),
		ActiveLeases:    len(sw.table.active),
		PendingPoints:   sw.table.pendingPoints(),
		Debt:            sw.debt,
		CheckpointBytes: sw.ckptBytes,
	}
}
