package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsockit/internal/dse"
)

// fakeClock is an injectable, manually advanced clock for driving
// lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sweepLines evaluates the sweep once and returns the expanded points
// plus each point's JSONL line (without trailing newline), indexed by
// point ID — the ground truth any worker anywhere would produce.
func sweepLines(t testing.TB, spec string, seed uint64) ([]dse.Point, [][]byte) {
	t.Helper()
	sw, err := dse.ParseSweep(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(points))
	eng := dse.Engine{OnResult: func(r dse.Result) {
		var buf bytes.Buffer
		if err := dse.WriteResult(&buf, r); err != nil {
			t.Error(err)
		}
		lines[r.Point.ID] = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}}
	eng.Run(points)
	return points, lines
}

// referenceBytes renders the full fault-free single-worker output
// file for the sweep.
func referenceBytes(t testing.TB, spec string, seed uint64) []byte {
	t.Helper()
	points, lines := sweepLines(t, spec, seed)
	var buf bytes.Buffer
	if err := dse.WriteHeader(&buf, dse.NewHeader(spec, seed, points, nil)); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// postJSON drives one JSON protocol request against the handler.
func postJSON(t *testing.T, h http.Handler, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// postLines submits JSONL result lines against a lease, naming its
// sweep, and returns the status code, ack and error body.
func postLines(t *testing.T, h http.Handler, worker string, l *Lease, lines [][]byte) (int, ResultAck, string) {
	t.Helper()
	return postLinesSweep(t, h, worker, l.Sweep, l.ID, lines)
}

// lease requests one lease for the worker.
func requestLease(t *testing.T, h http.Handler, worker string) LeaseResponse {
	t.Helper()
	var lr LeaseResponse
	if code := postJSON(t, h, "/lease", LeaseRequest{Worker: worker}, &lr); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	return lr
}

// TestLeaseExpiryReclaimThenLateAck is the dedupe race the whole
// design leans on: worker A's lease expires (stalled heartbeat), the
// range is reclaimed and reissued to worker B, B submits — and then A,
// which was merely slow, acks the same points late. A's lines must
// land as byte-identical duplicates, not conflicts, and the final file
// must come out clean.
func TestLeaseExpiryReclaimThenLateAck(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	points, lines := sweepLines(t, spec, seed)
	clock := newFakeClock()
	srv, err := New(Config{Spec: spec, Seed: seed, LeaseTimeout: 10 * time.Second, Chunks: 4, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	la := requestLease(t, h, "A")
	if la.Lease == nil {
		t.Fatal("A got no lease")
	}

	// A goes quiet; the deadline passes; B's next request reclaims.
	clock.Advance(11 * time.Second)
	lb := requestLease(t, h, "B")
	if lb.Lease == nil {
		t.Fatal("B got no lease after reclaim")
	}
	if lb.Lease.Lo != la.Lease.Lo {
		t.Fatalf("B's lease starts at %d, want the reclaimed range start %d", lb.Lease.Lo, la.Lease.Lo)
	}
	if lb.Lease.Len() >= la.Lease.Len() {
		t.Fatalf("reissued lease len %d not shrunk from %d", lb.Lease.Len(), la.Lease.Len())
	}

	// A's heartbeat for the reclaimed lease is politely refused.
	var hb HeartbeatResponse
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "A", Sweep: la.Lease.Sweep, Lease: la.Lease.ID}, &hb)
	if hb.Valid {
		t.Fatal("heartbeat on a reclaimed lease reported valid")
	}

	// B delivers its (shrunken) range.
	code, ack, body := postLines(t, h, "B", lb.Lease, lines[lb.Lease.Lo:lb.Lease.Hi])
	if code != http.StatusOK || ack.Accepted != lb.Lease.Len() {
		t.Fatalf("B submit: HTTP %d ack %+v (%s)", code, ack, body)
	}

	// A wakes up and submits its whole original range: the part B beat
	// it to dedupes, the rest is accepted.
	code, ack, body = postLines(t, h, "A", la.Lease, lines[la.Lease.Lo:la.Lease.Hi])
	if code != http.StatusOK {
		t.Fatalf("late ack: HTTP %d (%s)", code, body)
	}
	if ack.Duplicates != lb.Lease.Len() {
		t.Fatalf("late ack dedupe: %d duplicates, want %d", ack.Duplicates, lb.Lease.Len())
	}
	if ack.Accepted != la.Lease.Len()-lb.Lease.Len() {
		t.Fatalf("late ack accepted %d, want %d", ack.Accepted, la.Lease.Len()-lb.Lease.Len())
	}

	// Drain the rest of the sweep as worker B.
	for {
		lr := requestLease(t, h, "B")
		if lr.Done {
			break
		}
		if lr.Lease == nil {
			t.Fatalf("sweep stalled: %+v, status %+v", lr, srv.Status())
		}
		if code, _, body := postLines(t, h, "B", lr.Lease, lines[lr.Lease.Lo:lr.Lease.Hi]); code != http.StatusOK {
			t.Fatalf("drain submit: HTTP %d (%s)", code, body)
		}
	}

	st := srv.Status()
	if !st.Complete || st.Done != len(points) || st.Duplicates != lb.Lease.Len() {
		t.Fatalf("final status %+v", st)
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("merged output differs from the fault-free single-worker run")
	}
}

// TestSweeplessRequestsRejected: /results and /heartbeat must name
// their sweep. A request that does not is a 400 naming the missing
// parameter — not a Cancelled ack, which would make an old worker drop
// every lease and ask again forever.
func TestSweeplessRequestsRejected(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	l := requestLease(t, h, "w")
	for path, body := range map[string]string{
		fmt.Sprintf("/results?worker=w&lease=%d", l.Lease.ID): "",
		"/heartbeat": fmt.Sprintf(`{"worker":"w","lease":%d}`, l.Lease.ID),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "missing the sweep parameter") {
			t.Fatalf("sweepless %s: HTTP %d (%s), want 400 naming the sweep parameter", path, rec.Code, rec.Body.String())
		}
	}
}

// TestConflictingBytesRejected checks that a result whose bytes
// disagree with an accepted line — or whose point disagrees with the
// spec expansion — is refused with 409, because that is engine drift,
// not a retry.
func TestConflictingBytesRejected(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	srv, err := New(Config{Spec: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	l := requestLease(t, h, "w")
	if code, _, _ := postLines(t, h, "w", l.Lease, lines[l.Lease.Lo:l.Lease.Hi]); code != http.StatusOK {
		t.Fatalf("seed submit: HTTP %d", code)
	}

	// Same point, different metrics bytes: conflict.
	tampered := bytes.Replace(lines[l.Lease.Lo], []byte(`"makespan_ps":`), []byte(`"makespan_ps":9`), 1)
	code, _, body := postLines(t, h, "w", l.Lease, [][]byte{tampered})
	if code != http.StatusConflict || !strings.Contains(body, "conflicting") {
		t.Fatalf("tampered metrics: HTTP %d (%s), want 409/conflicting", code, body)
	}

	// A point that does not re-expand from the spec: refused.
	var r dse.Result
	if err := json.Unmarshal(lines[l.Lease.Hi-1], &r); err != nil {
		t.Fatal(err)
	}
	r.Point.Seed++
	var buf bytes.Buffer
	if err := dse.WriteResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	code, _, body = postLines(t, h, "w", l.Lease, [][]byte{bytes.TrimSuffix(buf.Bytes(), []byte("\n"))})
	if code != http.StatusConflict || !strings.Contains(body, "does not match") {
		t.Fatalf("drifted point: HTTP %d (%s), want 409/does not match", code, body)
	}
}

// TestCheckpointResume crashes the coordinator (with a torn tail, as
// a real crash would leave) and resumes: accepted work survives, the
// sweep completes, and the output is still byte-identical.
func TestCheckpointResume(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	points, lines := sweepLines(t, spec, seed)
	ckpt := filepath.Join(t.TempDir(), "coord.jsonl")

	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	l := requestLease(t, h, "w")
	if code, _, _ := postLines(t, h, "w", l.Lease, lines[l.Lease.Lo:l.Lease.Hi]); code != http.StatusOK {
		t.Fatal("submit failed")
	}
	accepted := l.Lease.Len()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash tearing a final line.
	f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"point":{"id":`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Config{Spec: spec, Seed: seed, Chunks: 4, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv2.Status(); st.Done != accepted {
		t.Fatalf("resumed Done = %d, want %d", st.Done, accepted)
	}
	h2 := srv2.Handler()
	for {
		lr := requestLease(t, h2, "w")
		if lr.Done {
			break
		}
		if lr.Lease == nil {
			t.Fatalf("stalled: %+v", srv2.Status())
		}
		if code, _, body := postLines(t, h2, "w", lr.Lease, lines[lr.Lease.Lo:lr.Lease.Hi]); code != http.StatusOK {
			t.Fatalf("submit: HTTP %d (%s)", code, body)
		}
	}
	select {
	case <-srv2.Done():
	default:
		t.Fatal("Done channel not closed after completion")
	}
	var got bytes.Buffer
	if err := srv2.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("resumed output differs from the fault-free run")
	}
	if st := srv2.Status(); st.Total != len(points) || !st.Complete {
		t.Fatalf("final status %+v", st)
	}

	// A third resume from the now-complete checkpoint is done on
	// arrival.
	srv3, err := New(Config{Spec: spec, Seed: seed, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv3.Done():
	default:
		t.Fatal("resume of a complete checkpoint did not close Done")
	}
	var lr LeaseResponse
	postJSON(t, srv3.Handler(), "/lease", LeaseRequest{Worker: "w"}, &lr)
	if !lr.Done {
		t.Fatalf("lease on a complete sweep: %+v", lr)
	}
}

// TestWriteFinalIncomplete checks the coordinator refuses to write a
// partial sweep as final output.
func TestWriteFinalIncomplete(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.WriteFinal(&buf); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("WriteFinal on empty sweep: %v", err)
	}
}

// TestStealDuplicatesStragglerTail checks work stealing: when all
// work is leased but one holder is slow, an idle worker is handed a
// duplicate of the unfinished tail rather than nothing.
func TestStealDuplicatesStragglerTail(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	points, lines := sweepLines(t, spec, seed)
	clock := newFakeClock()
	srv, err := New(Config{Spec: spec, Seed: seed, LeaseTimeout: 10 * time.Second, Chunks: 1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// One lease covers the whole sweep.
	la := requestLease(t, h, "slow")
	if la.Lease == nil || la.Lease.Len() != len(points) {
		t.Fatalf("expected a whole-sweep lease, got %+v", la)
	}
	// Too young to rob yet.
	if lb := requestLease(t, h, "idle"); lb.Lease != nil {
		t.Fatalf("stole from a fresh lease: %+v", lb.Lease)
	}
	// The straggler heartbeats (stays live) but completes only the
	// first quarter. Past half the timeout its tail is stealable.
	quarter := len(points) / 4
	if code, _, _ := postLines(t, h, "slow", la.Lease, lines[:quarter]); code != http.StatusOK {
		t.Fatal("straggler submit failed")
	}
	clock.Advance(6 * time.Second)
	var hb HeartbeatResponse
	postJSON(t, h, "/heartbeat", HeartbeatRequest{Worker: "slow", Sweep: la.Lease.Sweep, Lease: la.Lease.ID}, &hb)
	if !hb.Valid {
		t.Fatal("straggler heartbeat refused")
	}
	lb := requestLease(t, h, "idle")
	if lb.Lease == nil {
		t.Fatalf("no steal offered: %+v", srv.Status())
	}
	if lb.Lease.Lo <= quarter || lb.Lease.Hi != len(points) {
		t.Fatalf("stolen range [%d,%d), want the tail half of the %d missing", lb.Lease.Lo, lb.Lease.Hi, len(points)-quarter)
	}
	// Both finish; the overlap dedupes; the file is clean.
	if code, _, _ := postLines(t, h, "idle", lb.Lease, lines[lb.Lease.Lo:lb.Lease.Hi]); code != http.StatusOK {
		t.Fatal("thief submit failed")
	}
	code, ack, _ := postLines(t, h, "slow", la.Lease, lines[quarter:])
	if code != http.StatusOK || ack.Duplicates != lb.Lease.Len() {
		t.Fatalf("straggler finish: HTTP %d ack %+v, want %d duplicates", code, ack, lb.Lease.Len())
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("output differs after steal + duplicate finish")
	}
}
