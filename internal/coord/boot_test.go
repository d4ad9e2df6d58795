package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestBootSweepIsRegistration checks that a boot sweep is an ordinary
// registry sweep: a boot-mode server and a service-mode server that
// registers the same spec and seed over POST /sweeps report the same
// registry row and keep the same checkpoint bytes, after a partial
// submit and after completion. The leases are submitted last-first,
// so the append-order log differs from the final file until the
// completed checkpoint is rewritten — which must happen for the boot
// sweep's -checkpoint file too, leaving it equal to WriteFinal.
func TestBootSweepIsRegistration(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	bootPath := filepath.Join(t.TempDir(), "boot.jsonl")
	boot, err := New(Config{Spec: spec, Seed: seed, Chunks: 4, CheckpointPath: bootPath})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc, err := New(Config{Chunks: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bh, sh := boot.Handler(), svc.Handler()
	code, rr := registerSweep(t, sh, spec, seed)
	if code != http.StatusCreated {
		t.Fatalf("register: HTTP %d", code)
	}
	svcPath := filepath.Join(dir, rr.Sweep.ID+".jsonl")

	same := func(stage string) {
		t.Helper()
		bootRows, svcRows := listSweeps(t, bh), listSweeps(t, sh)
		if len(bootRows) != 1 || !reflect.DeepEqual(bootRows, svcRows) {
			t.Fatalf("%s: boot rows %+v, service rows %+v", stage, bootRows, svcRows)
		}
		if st := boot.Status(); !reflect.DeepEqual(st.Sweeps, bootRows) {
			t.Fatalf("%s: Status rows %+v, registry rows %+v", stage, st.Sweeps, bootRows)
		}
		bootBytes, err := os.ReadFile(bootPath)
		if err != nil {
			t.Fatal(err)
		}
		svcBytes, err := os.ReadFile(svcPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bootBytes, svcBytes) {
			t.Fatalf("%s: boot checkpoint (%d bytes) differs from the registered sweep's (%d bytes)", stage, len(bootBytes), len(svcBytes))
		}
	}
	same("registered")

	// Lease out the whole sweep on both servers; each grant must match.
	var leases []*Lease
	for listSweeps(t, bh)[0].PendingPoints > 0 {
		bl, sl := requestLease(t, bh, "w"), requestLease(t, sh, "w")
		if bl.Lease == nil || !reflect.DeepEqual(bl, sl) {
			t.Fatalf("boot lease %+v, service lease %+v", bl, sl)
		}
		leases = append(leases, bl.Lease)
	}
	if len(leases) < 2 {
		t.Fatalf("%d lease(s), want several to submit out of order", len(leases))
	}
	for i := len(leases) - 1; i >= 0; i-- {
		l := leases[i]
		for _, h := range []http.Handler{bh, sh} {
			if code, _, body := postLines(t, h, "w", l, lines[l.Lo:l.Hi]); code != http.StatusOK {
				t.Fatalf("submit [%d,%d): HTTP %d (%s)", l.Lo, l.Hi, code, body)
			}
		}
		if i == len(leases)-1 {
			same("partial")
		}
	}
	same("complete")

	var final bytes.Buffer
	if err := boot.WriteFinal(&final); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(bootPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, final.Bytes()) {
		t.Fatal("completed boot checkpoint is not the canonical final file")
	}
}

// TestBootDoneIgnoresRescannedSweeps checks that a boot-mode
// coordinator is finished when its own sweep is, even while a sweep
// it rescanned from the checkpoint directory is still active: Done
// closes, and both the final ack and a /lease tell workers to exit.
func TestBootDoneIgnoresRescannedSweeps(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	code, other := registerSweep(t, svc.Handler(), "smoke", 2)
	if code != http.StatusCreated {
		t.Fatalf("register: HTTP %d", code)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	_, lines := sweepLines(t, "smoke", 1)
	srv, err := New(Config{Spec: "smoke", Seed: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); len(st.Sweeps) != 2 {
		t.Fatalf("registry %+v, want the rescanned sweep plus the boot sweep", st.Sweeps)
	}
	h := srv.Handler()
	code, ack, body := postLinesSweep(t, h, "w", srv.boot.id, 1, lines)
	if code != http.StatusOK || !ack.Done {
		t.Fatalf("final ack: HTTP %d %+v (%s), want Done", code, ack, body)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after the boot sweep completed")
	}
	if lr := requestLease(t, h, "w"); !lr.Done {
		t.Fatalf("lease after the boot sweep completed: %+v, want Done", lr)
	}
	for _, row := range srv.Status().Sweeps {
		if row.ID == other.Sweep.ID && row.State != SweepActive {
			t.Fatalf("rescanned sweep %s is %s, want still active", row.ID, row.State)
		}
	}
}

// leaseAnswer is a /lease response and when it arrived.
type leaseAnswer struct {
	lr LeaseResponse
	at time.Time
}

// parkIdleLease sends a /lease for worker from another goroutine and
// returns once the coordinator has decided it (the worker shows in
// the /status table); with nothing to grant, the request is then
// parked. The answer arrives on the returned channel.
func parkIdleLease(t *testing.T, srv *Server, worker string) <-chan leaseAnswer {
	t.Helper()
	answers := make(chan leaseAnswer, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/lease", bytes.NewReader([]byte(`{"worker":"`+worker+`"}`)))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		at := time.Now()
		var lr LeaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
			t.Errorf("%s lease: HTTP %d, decoding %q: %v", worker, rec.Code, rec.Body.String(), err)
		}
		answers <- leaseAnswer{lr, at}
	}()
	waitUntil(t, 5*time.Second, func() bool {
		for _, ws := range srv.Status().WorkerInfo {
			if ws.Name == worker {
				return true
			}
		}
		return false
	})
	return answers
}

// awaitAnswer returns the parked request's answer, failing unless it
// arrived within 100 ms of since.
func awaitAnswer(t *testing.T, answers <-chan leaseAnswer, since time.Time) LeaseResponse {
	t.Helper()
	select {
	case a := <-answers:
		if lag := a.at.Sub(since); lag > 100*time.Millisecond {
			t.Fatalf("parked lease answered %v later, want <= 100ms", lag)
		}
		return a.lr
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease never answered")
		return LeaseResponse{}
	}
}

// TestIdleLeaseLearnsCompletion checks that a /lease parked with
// nothing to grant answers Done as soon as the final /results ack
// completes the boot sweep, not after its RetryMS.
func TestIdleLeaseLearnsCompletion(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	// One whole-sweep lease; a second worker gets nothing (the lease is
	// too young to steal from) and would be told to retry in 1 s.
	srv, err := New(Config{Spec: spec, Seed: seed, LeaseTimeout: 8 * time.Second, Chunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	la := requestLease(t, h, "busy")
	if la.Lease == nil || la.Lease.Len() != len(lines) {
		t.Fatalf("expected a whole-sweep lease, got %+v", la)
	}
	idle := parkIdleLease(t, srv, "idle")
	code, ack, body := postLinesSweep(t, h, "busy", la.Lease.Sweep, la.Lease.ID, lines)
	if code != http.StatusOK || !ack.Done {
		t.Fatalf("final ack: HTTP %d %+v (%s), want Done", code, ack, body)
	}
	if lr := awaitAnswer(t, idle, time.Now()); !lr.Done {
		t.Fatalf("idle lease answered %+v, want Done", lr)
	}
}

// TestIdleLeaseLearnsRegistration checks that in service mode a /lease
// parked on an empty registry is granted work as soon as a sweep is
// registered, not after its RetryMS (3.75 s at the default timeout).
func TestIdleLeaseLearnsRegistration(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	idle := parkIdleLease(t, srv, "idle")
	if code, _ := registerSweep(t, srv.Handler(), "smoke", 1); code != http.StatusCreated {
		t.Fatalf("register: HTTP %d", code)
	}
	if lr := awaitAnswer(t, idle, time.Now()); lr.Lease == nil {
		t.Fatalf("idle lease answered %+v, want a lease of the new sweep", lr)
	}
}
