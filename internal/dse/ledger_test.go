package dse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpsockit/internal/obs"
)

// ledgerSpec is the work ledger's task-level spec: both heuristics at
// every fidelity (mvp, its vp and cal twins, pipe), contended memory
// beside ideal, a multi-app scenario and an rtos job bag.
const ledgerSpec = "plat=homog4;mem=ideal,bank:4x2;wl=synth8,multi:jpeg+synth8,jobs8;heur=list,anneal;fid=mvp,vp64,cal:2,pipe8"

// ledgerCols names the work ledger's columns: the context-wide work
// counters ledgerCounts reads, then the fabric transfers of the
// points' results.
var ledgerCols = [...]string{"points", "schedules", "tasks_sched", "anneal_moves", "certified", "sim_sched", "sim_exec",
	"exec_reused", "graphs", "multis", "plats", "cal_fits", "transfers"}

// ledgerRow is the deterministic work of a set of points, by
// ledgerCols.
type ledgerRow [len(ledgerCols)]int64

// transfers is the ledgerCols index of the fabric transfers.
const transfers = len(ledgerCols) - 1

// ledgerCounts reads the context-wide work counters of o.
func ledgerCounts(o EvalObs) ledgerRow {
	return ledgerRow{
		o.Points.Value(), o.Search.Schedules.Value(), o.Search.TasksScheduled.Value(),
		o.Search.AnnealMoves.Value(), o.Search.Certified.Value(), o.SimScheduled.Value(), o.SimExecuted.Value(),
		o.ExecReused.Value(), o.GraphMisses.Value(), o.MultiMisses.Value(), o.PlatBuilds.Value(), o.CalMisses.Value(), 0,
	}
}

// TestWorkLedgerGolden pins the deterministic work of evaluation —
// mapping schedules, tasks scheduled, anneal moves, kernel events,
// executions reused, fabric transfers, and the graphs, platforms and
// cal fits built — per fidelity, over the smoke preset and ledgerSpec
// evaluated in order on one observed EvalContext, as a sweep worker
// evaluates them. Work
// counts do not move with host noise, so a change that searches,
// simulates or rebuilds more shows here as a diff even when its output
// bytes hold. A change that moves work regenerates the golden and
// states the delta and its reason:
//
//	go test ./internal/dse/ -run TestWorkLedgerGolden -update-golden
func TestWorkLedgerGolden(t *testing.T) {
	const seed = 1
	var points []Point
	for _, spec := range []string{"smoke", ledgerSpec} {
		points = append(points, expandSweep(t, spec, seed)...)
	}
	o := NewEvalObs(obs.NewRegistry())
	c := NewEvalContext()
	c.SetObs(o)
	fids := []string{"mvp", "vp", "cal", "pipe", "rtos"}
	rows := map[string]*ledgerRow{}
	for _, f := range fids {
		rows[f] = &ledgerRow{}
	}
	for _, p := range points {
		before := ledgerCounts(o)
		r := c.Evaluate(p)
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", p.ID, r.Err)
		}
		row, ok := rows[p.Fidelity]
		if !ok {
			t.Fatalf("point %d: fidelity %q has no ledger row", p.ID, p.Fidelity)
		}
		for i, n := range ledgerCounts(o) {
			row[i] += n - before[i]
		}
		row[transfers] += int64(r.Metrics.NoCTransfers)
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "work ledger: smoke + %s, seed %d, one EvalContext\n", ledgerSpec, seed)
	buf.WriteString("fid  ")
	for _, col := range ledgerCols {
		fmt.Fprintf(&buf, " %*s", len(col), col)
	}
	buf.WriteByte('\n')
	var total ledgerRow
	line := func(name string, r ledgerRow) {
		fmt.Fprintf(&buf, "%-5s", name)
		for i, col := range ledgerCols {
			fmt.Fprintf(&buf, " %*d", len(col), r[i])
		}
		buf.WriteByte('\n')
	}
	for _, f := range fids {
		line(f, *rows[f])
		for i, n := range rows[f] {
			total[i] += n
		}
	}
	line("total", total)
	if got := o.Points.Value(); total[0] != got || got != int64(len(points)) {
		t.Fatalf("ledger rows hold %d points, dse_points_total %d, %d evaluated", total[0], got, len(points))
	}
	// A vp point runs the mapping its mvp twin searched on the twin's
	// platform and graph, right after the twin: it schedules, builds
	// and executes nothing, reusing the twin's execution.
	vp := rows["vp"]
	if vp[0] == 0 {
		t.Fatal("vacuous: no vp points")
	}
	for i, col := range ledgerCols {
		switch col {
		case "schedules", "tasks_sched", "anneal_moves", "certified", "sim_sched", "sim_exec", "graphs", "multis", "plats", "cal_fits":
			if vp[i] != 0 {
				t.Fatalf("vp points: %s = %d, want 0 (the mvp twin's search, execution and builds)", col, vp[i])
			}
		case "exec_reused":
			if vp[i] != vp[0] {
				t.Fatalf("vp points: %d executions reused, want all %d", vp[i], vp[0])
			}
		}
	}

	path := filepath.Join("testdata", "work_ledger.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s:\n%s", path, buf.Bytes())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("work ledger drifted from %s — if intentional, regenerate with -update-golden and state the delta in CHANGES.md.\n--- got ---\n%s--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}
