package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSON drives one request of any method against the handler,
// decoding a JSON response body into out on 2xx.
func doJSON(t *testing.T, h http.Handler, method, path string, in, out any) (int, http.Header) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Result().Header
}

// registerSweep registers a tenant sweep and returns the response.
func registerSweep(t *testing.T, h http.Handler, spec string, seed uint64) (int, RegisterResponse) {
	t.Helper()
	var rr RegisterResponse
	code, _ := doJSON(t, h, http.MethodPost, "/sweeps", RegisterRequest{Spec: spec, Seed: seed}, &rr)
	return code, rr
}

// postLinesSweep submits JSONL result lines for one sweep.
func postLinesSweep(t *testing.T, h http.Handler, worker, sweepID string, lease int64, lines [][]byte) (int, ResultAck, string) {
	t.Helper()
	body := bytes.Join(lines, []byte("\n"))
	path := fmt.Sprintf("/results?worker=%s&sweep=%s&lease=%d", worker, sweepID, lease)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var ack ResultAck
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, ack, rec.Body.String()
}

// fetchResult downloads a completed sweep's final JSONL.
func fetchResult(t *testing.T, h http.Handler, sweepID string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/sweeps/"+sweepID+"/result", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET result %s: HTTP %d (%s)", sweepID, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// listSweeps fetches the registry table.
func listSweeps(t *testing.T, h http.Handler) []SweepStatus {
	t.Helper()
	var rows []SweepStatus
	if code, _ := doJSON(t, h, http.MethodGet, "/sweeps", nil, &rows); code != http.StatusOK {
		t.Fatalf("GET /sweeps: HTTP %d", code)
	}
	return rows
}

// TestRegistryLifecycle checks registration idempotency and the
// registry read endpoints.
func TestRegistryLifecycle(t *testing.T) {
	srv, err := New(Config{}) // service mode: no boot sweep
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if rows := listSweeps(t, h); len(rows) != 0 {
		t.Fatalf("fresh service has %d sweeps", len(rows))
	}
	code, rr := registerSweep(t, h, "smoke", 1)
	if code != http.StatusCreated || !rr.Created {
		t.Fatalf("register: HTTP %d %+v", code, rr)
	}
	id := rr.Sweep.ID
	if id != "sw-"+rr.Header.SpecHash {
		t.Fatalf("sweep ID %q not derived from spec hash %q", id, rr.Header.SpecHash)
	}
	// Re-registration is idempotent: same ID, not created, 200.
	code, rr2 := registerSweep(t, h, "smoke", 1)
	if code != http.StatusOK || rr2.Created || rr2.Sweep.ID != id {
		t.Fatalf("re-register: HTTP %d %+v", code, rr2)
	}
	var row SweepStatus
	if code, _ := doJSON(t, h, http.MethodGet, "/sweeps/"+id, nil, &row); code != http.StatusOK || row.State != SweepActive {
		t.Fatalf("GET sweep: HTTP %d %+v", code, row)
	}
	if code, _ := doJSON(t, h, http.MethodGet, "/sweeps/sw-nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown sweep: HTTP %d, want 404", code)
	}
	// A different seed is a different tenant.
	code, rr3 := registerSweep(t, h, "smoke", 2)
	if code != http.StatusCreated || rr3.Sweep.ID == id {
		t.Fatalf("second tenant: HTTP %d id %s", code, rr3.Sweep.ID)
	}
	if rows := listSweeps(t, h); len(rows) != 2 || rows[0].ID != id {
		t.Fatalf("registry rows %+v", rows)
	}
}

// TestAdmissionControl checks both backpressure refusals: sweep-count
// 429 and disk-budget 507, each with Retry-After.
func TestAdmissionControl(t *testing.T) {
	srv, err := New(Config{MaxSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if code, _ := registerSweep(t, h, "smoke", 1); code != http.StatusCreated {
		t.Fatalf("first register: HTTP %d", code)
	}
	code, hdr := doJSON(t, h, http.MethodPost, "/sweeps", RegisterRequest{Spec: "smoke", Seed: 2}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over sweep limit: HTTP %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Re-registering the existing sweep is still fine at the limit.
	if code, rr := registerSweep(t, h, "smoke", 1); code != http.StatusOK || rr.Created {
		t.Fatalf("idempotent register at limit: HTTP %d %+v", code, rr)
	}

	// Disk budget: the first sweep's checkpoint header alone exceeds a
	// one-byte budget, so the second tenant is refused with 507.
	dir := t.TempDir()
	srv2, err := New(Config{CheckpointDir: dir, DiskBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2 := srv2.Handler()
	if code, _ := registerSweep(t, h2, "smoke", 1); code != http.StatusCreated {
		t.Fatalf("register under budget: HTTP %d", code)
	}
	code, hdr = doJSON(t, h2, http.MethodPost, "/sweeps", RegisterRequest{Spec: "smoke", Seed: 2}, nil)
	if code != http.StatusInsufficientStorage || hdr.Get("Retry-After") == "" {
		t.Fatalf("over disk budget: HTTP %d (Retry-After %q), want 507", code, hdr.Get("Retry-After"))
	}
}

// TestCancelReclaimsLeasesAndIsolatesTenants is the tenant-isolation
// contract: cancelling sweep A reclaims all of A's leases, answers A's
// late traffic with Cancelled, and leaves sweep B completely
// untouched — B still completes byte-identical to its standalone run.
func TestCancelReclaimsLeasesAndIsolatesTenants(t *testing.T) {
	_, linesB := sweepLines(t, "smoke", 2)
	srv, err := New(Config{Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	_, rrA := registerSweep(t, h, "smoke", 1)
	_, rrB := registerSweep(t, h, "smoke", 2)
	idA, idB := rrA.Sweep.ID, rrB.Sweep.ID

	// First grant goes to A (registration order on zero debts), giving
	// worker wa affinity to A; fairness then steers wb to B.
	la := requestLease(t, h, "wa")
	if la.Lease == nil || la.Lease.Sweep != idA {
		t.Fatalf("wa's lease %+v, want sweep %s", la.Lease, idA)
	}
	if la.Header == nil || la.Header.SpecHash != rrA.Header.SpecHash {
		t.Fatalf("lease header %+v, want sweep A's", la.Header)
	}
	lb := requestLease(t, h, "wb")
	if lb.Lease == nil || lb.Lease.Sweep != idB {
		t.Fatalf("wb's lease %+v, want sweep %s (fairness)", lb.Lease, idB)
	}

	// Cancel A mid-lease.
	var cancelled SweepStatus
	if code, _ := doJSON(t, h, http.MethodDelete, "/sweeps/"+idA, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if cancelled.State != SweepCancelled || cancelled.ActiveLeases != 0 {
		t.Fatalf("cancelled status %+v, want state=cancelled with 0 leases", cancelled)
	}

	// A's worker learns via heartbeat and result ack, not errors.
	var hb HeartbeatResponse
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "wa", Sweep: idA, Lease: la.Lease.ID}, &hb)
	if hb.Valid || !hb.Cancelled {
		t.Fatalf("heartbeat on cancelled sweep: %+v", hb)
	}
	_, linesA := sweepLines(t, "smoke", 1)
	code, ack, _ := postLinesSweep(t, h, "wa", idA, la.Lease.ID, linesA[la.Lease.Lo:la.Lease.Hi])
	if code != http.StatusOK || !ack.Cancelled || ack.Accepted != 0 {
		t.Fatalf("late submit to cancelled sweep: HTTP %d %+v", code, ack)
	}

	// B is untouched: its lease heartbeats fine and the sweep drains to
	// byte-identical completion.
	var hbB HeartbeatResponse
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "wb", Sweep: idB, Lease: lb.Lease.ID}, &hbB)
	if !hbB.Valid || hbB.Cancelled {
		t.Fatalf("B's heartbeat after A's cancel: %+v", hbB)
	}
	if code, _, body := postLinesSweep(t, h, "wb", idB, lb.Lease.ID, linesB); code != http.StatusOK {
		t.Fatalf("B drain: HTTP %d (%s)", code, body)
	}
	var rowB SweepStatus
	doJSON(t, h, http.MethodGet, "/sweeps/"+idB, nil, &rowB)
	if rowB.State != SweepDone {
		t.Fatalf("B after drain: %+v", rowB)
	}
	if !bytes.Equal(fetchResult(t, h, idB), referenceBytes(t, "smoke", 2)) {
		t.Fatal("B's output differs from its standalone run after A's cancel")
	}
	var snap FrontSnapshot
	if code, _ := doJSON(t, h, http.MethodGet, "/sweeps/"+idB+"/front", nil, &snap); code != http.StatusOK {
		t.Fatalf("front: HTTP %d", code)
	}
	if !snap.Complete || len(snap.Front) == 0 || len(snap.Hypervolumes) == 0 {
		t.Fatalf("front snapshot %+v", snap)
	}
}

// TestDirResumeCoversAllActiveSweeps is whole-farm crash recovery: a
// coordinator dies (torn checkpoint tail included) with two sweeps
// mid-flight; the restarted coordinator resumes both from the
// checkpoint directory and each completes byte-identical.
func TestDirResumeCoversAllActiveSweeps(t *testing.T) {
	dir := t.TempDir()
	_, linesA := sweepLines(t, "smoke", 1)
	_, linesB := sweepLines(t, "smoke", 2)

	srv, err := New(Config{CheckpointDir: dir, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	_, rrA := registerSweep(t, h, "smoke", 1)
	_, rrB := registerSweep(t, h, "smoke", 2)
	idA, idB := rrA.Sweep.ID, rrB.Sweep.ID
	if _, ack, _ := postLinesSweep(t, h, "w", idA, 0, linesA[:5]); ack.Accepted != 5 {
		t.Fatal("seeding A failed")
	}
	if _, ack, _ := postLinesSweep(t, h, "w", idB, 0, linesB[:7]); ack.Accepted != 7 {
		t.Fatal("seeding B failed")
	}
	// Crash: no graceful close; then a torn tail on A's log, as a real
	// mid-append crash would leave.
	srv.Close()
	f, err := os.OpenFile(filepath.Join(dir, idA+".jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(`{"point":{"id":`))
	f.Close()

	srv2, err := New(Config{CheckpointDir: dir, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	h2 := srv2.Handler()
	rows := listSweeps(t, h2)
	if len(rows) != 2 {
		t.Fatalf("restart recovered %d sweeps, want 2", len(rows))
	}
	byID := map[string]SweepStatus{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	if byID[idA].Done != 5 || byID[idB].Done != 7 {
		t.Fatalf("resumed progress A=%d B=%d, want 5 and 7", byID[idA].Done, byID[idB].Done)
	}
	// Finish both; outputs must be byte-identical to standalone runs.
	postLinesSweep(t, h2, "w", idA, 0, linesA)
	postLinesSweep(t, h2, "w", idB, 0, linesB)
	for _, row := range listSweeps(t, h2) {
		if row.State != SweepDone {
			t.Fatalf("after drain: %+v", row)
		}
	}
	if !bytes.Equal(fetchResult(t, h2, idA), referenceBytes(t, "smoke", 1)) {
		t.Fatal("A's resumed output differs")
	}
	if !bytes.Equal(fetchResult(t, h2, idB), referenceBytes(t, "smoke", 2)) {
		t.Fatal("B's resumed output differs")
	}

	// A third incarnation adopts the finalized files as done sweeps and
	// still serves identical bytes.
	srv3, err := New(Config{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h3 := srv3.Handler()
	for _, row := range listSweeps(t, h3) {
		if row.State != SweepDone {
			t.Fatalf("third incarnation: %+v", row)
		}
	}
	if !bytes.Equal(fetchResult(t, h3, idA), referenceBytes(t, "smoke", 1)) {
		t.Fatal("finalized file served differently after restart")
	}
}

// TestFairSchedulerDebtBound is the scheduler property test: under
// adversarial random grant costs and affinity churn, no sweep's debt
// drifts unboundedly in either direction, debts always sum to zero,
// and no sweep is starved of grants.
//
// Bound rationale: a sweep is only ever *granted* work when its debt
// is within threshold of the maximum (affinity) or is the maximum, so
// debts sink at most threshold + maxCost below zero. Upward creep
// happens while affinity outruns fairness, but each affinity grant
// widens the gap to the leader by its full cost while raising the
// leader only cost/n, so the leader is served before exceeding
// roughly threshold + maxCost; doubling both terms gives comfortable
// slack without hiding real drift.
func TestFairSchedulerDebtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		debts := make([]float64, n)
		grants := make([]int, n)
		maxCost := 1.0 + rng.Float64()*9
		threshold := maxCost * (1 + rng.Float64()*3)
		affinity := make([]int, 6)
		for i := range affinity {
			affinity[i] = -1
		}
		bound := 2*threshold + 2*maxCost
		const steps = 1500
		for step := 0; step < steps; step++ {
			wkr := rng.Intn(len(affinity))
			pick := pickFair(debts, affinity[wkr], threshold)
			cost := 0.5 + rng.Float64()*(maxCost-0.5)
			chargeGrant(debts, pick, cost)
			affinity[wkr] = pick
			grants[pick]++
			sum := 0.0
			for i, d := range debts {
				sum += d
				if math.Abs(d) > bound {
					t.Fatalf("trial %d step %d: debt[%d]=%.2f exceeds bound %.2f (threshold %.2f, maxCost %.2f)",
						trial, step, i, d, bound, threshold, maxCost)
				}
			}
			if math.Abs(sum) > 1e-6*float64(step+1) {
				t.Fatalf("trial %d: debts sum to %g, want 0", trial, sum)
			}
		}
		for i, g := range grants {
			if g < steps/(n*10) {
				t.Fatalf("trial %d: sweep %d starved (%d of %d grants across %d sweeps)", trial, i, g, steps, n)
			}
		}
	}
}

// TestWorkerGCAndTombstoneExpiry checks /status and metric hygiene: a
// silent worker is dropped from the tables and its labeled series
// unregistered; a cancelled sweep's tombstone (which absorbs late
// traffic) also ages out along with its series.
func TestWorkerGCAndTombstoneExpiry(t *testing.T) {
	clock := newFakeClock()
	srv, err := New(Config{LeaseTimeout: 10 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	metrics := func() string {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Body.String()
	}
	// A heartbeat touches its worker whatever sweep it names.
	var hr HeartbeatResponse
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "old", Sweep: "sw-none"}, &hr)
	clock.Advance(30 * time.Second)
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "young", Sweep: "sw-none"}, &hr)
	if !strings.Contains(metrics(), `worker="old"`) {
		t.Fatal("old worker's series missing before expiry")
	}
	clock.Advance(15 * time.Second) // old is now 45s silent > 4 x 10s
	st := srv.Status()
	if st.Workers != 1 || len(st.WorkerInfo) != 1 || st.WorkerInfo[0].Name != "young" {
		t.Fatalf("after GC: %+v", st.WorkerInfo)
	}
	m := metrics()
	if strings.Contains(m, `worker="old"`) {
		t.Fatal("departed worker's series still exported")
	}
	if !strings.Contains(m, `worker="young"`) {
		t.Fatal("live worker's series dropped")
	}

	// Cancelled-sweep tombstone: present right after cancel, gone (with
	// its series) after the expiry window.
	_, rr := registerSweep(t, h, "smoke", 1)
	id := rr.Sweep.ID
	if !strings.Contains(metrics(), `sweep="`+id+`"`) {
		t.Fatal("registered sweep has no labeled series")
	}
	doJSON(t, h, http.MethodDelete, "/sweeps/"+id, nil, nil)
	if rows := listSweeps(t, h); len(rows) != 1 || rows[0].State != SweepCancelled {
		t.Fatalf("tombstone missing right after cancel: %+v", rows)
	}
	clock.Advance(41 * time.Second)
	srv.Status() // any request runs the GC
	if rows := listSweeps(t, h); len(rows) != 0 {
		t.Fatalf("tombstone survived expiry: %+v", rows)
	}
	if strings.Contains(metrics(), `sweep="`+id+`"`) {
		t.Fatal("removed sweep's series still exported")
	}
}

// TestDrainGraceful checks the SIGTERM path: a draining coordinator
// grants nothing and admits nobody, waits for the in-flight lease to
// flush, and leaves a checkpoint a restart can resume.
func TestDrainGraceful(t *testing.T) {
	_, lines := sweepLines(t, "smoke", 1)
	ckpt := filepath.Join(t.TempDir(), "boot.jsonl")
	srv, err := New(Config{Spec: "smoke", Seed: 1, Chunks: 4, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	l := requestLease(t, h, "w")
	if l.Lease == nil {
		t.Fatal("no lease before drain")
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	waitUntil(t, time.Second, func() bool { return srv.Status().Draining })
	if lr := requestLease(t, h, "w2"); lr.Lease != nil || lr.Done {
		t.Fatalf("draining coordinator still granting: %+v", lr)
	}
	if code, _ := doJSON(t, h, http.MethodPost, "/sweeps", RegisterRequest{Spec: "smoke", Seed: 9}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining register: HTTP %d, want 503", code)
	}
	// The in-flight lease flushes its results; drain completes.
	if code, _, body := postLines(t, h, "w", l.Lease, lines[l.Lease.Lo:l.Lease.Hi]); code != http.StatusOK {
		t.Fatalf("flush during drain: HTTP %d (%s)", code, body)
	}
	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete after in-flight lease flushed")
	}
	// The checkpoint is resumable exactly where the drain left it.
	srv2, err := New(Config{Spec: "smoke", Seed: 1, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Status().Done; got != l.Lease.Len() {
		t.Fatalf("resumed %d points after drain, want %d", got, l.Lease.Len())
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTwoSweepsConcurrentWorkersByteIdentity runs a real worker fleet
// against a two-tenant service end to end (the -race target): three
// interleaved workers drain both sweeps concurrently and each sweep's
// final bytes equal its standalone single-worker run.
func TestTwoSweepsConcurrentWorkersByteIdentity(t *testing.T) {
	srv, err := New(Config{LeaseTimeout: 5 * time.Second, Chunks: 6})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	h := srv.Handler()
	_, rrA := registerSweep(t, h, "smoke", 1)
	_, rrB := registerSweep(t, h, "smoke", 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(quickWorker(hs.URL, fmt.Sprintf("w%d", i)))
			errs[i] = w.Run(ctx)
		}(i)
	}
	waitUntil(t, 60*time.Second, func() bool {
		for _, row := range listSweeps(t, h) {
			if row.State != SweepDone {
				return false
			}
		}
		return true
	})
	cancel() // service mode: workers poll forever, stop them explicitly
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !bytes.Equal(fetchResult(t, h, rrA.Sweep.ID), referenceBytes(t, "smoke", 1)) {
		t.Fatal("sweep A bytes differ from standalone run")
	}
	if !bytes.Equal(fetchResult(t, h, rrB.Sweep.ID), referenceBytes(t, "smoke", 2)) {
		t.Fatal("sweep B bytes differ from standalone run")
	}
	// Both tenants got served: every worker held affinity somewhere,
	// and the farm-level counters cover both sweeps.
	st := srv.Status()
	if st.Done != st.Total || len(st.Sweeps) != 2 {
		t.Fatalf("final status %+v", st)
	}
}

// TestDrainingRefusesBeforeExpansion: a draining coordinator refuses a
// registration with 503 + Retry-After before it parses or expands the
// spec — so it pays nothing for the request, and even a malformed spec
// gets the refusal rather than a 400.
func TestDrainingRefusesBeforeExpansion(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, hdr := doJSON(t, srv.Handler(), http.MethodPost, "/sweeps", RegisterRequest{Spec: "plat=nope;wl=", Seed: 1}, nil)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining register of a malformed spec: HTTP %d, Retry-After %q; want 503 with Retry-After", code, hdr.Get("Retry-After"))
	}
}
