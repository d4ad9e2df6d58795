package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpsockit/internal/dse"
)

// resultsSpec is a cheap 72-point sweep mixing fabrics, DVFS levels,
// workloads and both task-level fidelities, so result lines differ in
// shape the way a farm's do.
const resultsSpec = "plat=homog2,homog4,wireless;fab=mesh,bus;dvfs=0,1;wl=jpeg,carradio,synth8;fid=mvp,pipe4"

// TestResultsMalformedMidBatch pins partial acceptance: a batch whose
// fourth line is malformed, or conflicts with an accepted result,
// lands its first three lines in order — accepted, counted and
// flushed to the checkpoint — before the post is refused with 409 and
// the conflict counter moves by one. Nothing after the bad line is
// applied, and resubmitting the prefix yields only duplicates.
func TestResultsMalformedMidBatch(t *testing.T) {
	const seed = uint64(5)
	_, lines := sweepLines(t, resultsSpec, seed)
	for _, tc := range []struct {
		name, want string
		bad        func(l *Lease) []byte
	}{
		{"malformed", "malformed result line", func(*Lease) []byte { return []byte(`{"point":{"id":`) }},
		{"conflicting", "conflicting", func(l *Lease) []byte {
			return bytes.Replace(lines[l.Lo], []byte(`"makespan_ps":`), []byte(`"makespan_ps":9`), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
			srv, err := New(Config{Spec: resultsSpec, Seed: seed, Chunks: 4, CheckpointPath: ckpt})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			l := requestLease(t, h, "w").Lease
			if l == nil || l.Len() < 6 {
				t.Fatalf("lease %+v too short for a mid-batch failure", l)
			}
			prefix := lines[l.Lo : l.Lo+3]
			batch := append(append(append([][]byte{}, prefix...), tc.bad(l)), lines[l.Lo+3:l.Lo+6]...)
			code, _, body := postLines(t, h, "w", l, batch)
			if code != http.StatusConflict || !bytes.Contains([]byte(body), []byte(tc.want)) {
				t.Fatalf("HTTP %d (%s), want 409 naming %q", code, body, tc.want)
			}
			if got := srv.obs.conflicts.Value(); got != 1 {
				t.Fatalf("conflict counter %d, want 1", got)
			}
			if got := srv.obs.accepted.Value(); got != 3 {
				t.Fatalf("accepted counter %d, want the 3-line prefix", got)
			}
			if st := srv.Status(); st.Done != 3 {
				t.Fatalf("Done = %d after the refused batch, want the 3-line prefix", st.Done)
			}
			lg, err := dse.ReadLog(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(lg.Raw) != 3 || lg.Torn {
				t.Fatalf("checkpoint holds %d lines (torn %v), want the 3-line prefix", len(lg.Raw), lg.Torn)
			}
			for i, raw := range lg.Raw {
				if !bytes.Equal(raw, prefix[i]) {
					t.Fatalf("checkpoint line %d differs from the submitted line", i)
				}
			}
			code, ack, body := postLines(t, h, "w", l, prefix)
			if code != http.StatusOK || ack.Accepted != 0 || ack.Duplicates != 3 {
				t.Fatalf("prefix resubmit: HTTP %d ack %+v (%s), want 3 duplicates", code, ack, body)
			}
		})
	}
}

// TestResultsConcurrentPosts drives the handler from three goroutines
// at once: two post disjoint 8-line batches of one sweep (with a
// checkpoint log) while a third polls /lease and /status. The merged
// output must equal a fault-free dse.Engine run byte for byte; under
// -race it also holds that decoding outside the lock shares nothing.
func TestResultsConcurrentPosts(t *testing.T) {
	const seed, batch = uint64(9), 8
	points, lines := sweepLines(t, resultsSpec, seed)
	srv, err := New(Config{Spec: resultsSpec, Seed: seed, CheckpointPath: filepath.Join(t.TempDir(), "sweep.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}

	var posters, poller sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	poller.Add(1)
	go func() {
		defer poller.Done()
		lease, _ := json.Marshal(LeaseRequest{Worker: "poller"})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, body := serve(http.MethodPost, "/lease", lease); code != http.StatusOK {
				errs <- fmt.Errorf("/lease: HTTP %d (%s)", code, body)
				return
			}
			if code, body := serve(http.MethodGet, "/status", nil); code != http.StatusOK {
				errs <- fmt.Errorf("/status: HTTP %d (%s)", code, body)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		posters.Add(1)
		go func(w int) {
			defer posters.Done()
			path := fmt.Sprintf("/results?worker=w%d&sweep=%s&lease=1", w, srv.boot.id)
			for lo := w * batch; lo < len(lines); lo += 2 * batch {
				hi := min(lo+batch, len(lines))
				code, body := serve(http.MethodPost, path, bytes.Join(lines[lo:hi], []byte("\n")))
				var ack ResultAck
				if code != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.Accepted != hi-lo {
					errs <- fmt.Errorf("w%d batch [%d,%d): HTTP %d (%s)", w, lo, hi, code, body)
					return
				}
			}
		}(w)
	}
	posters.Wait()
	close(stop)
	poller.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Status(); !st.Complete || st.Done != len(points) || st.Duplicates != 0 {
		t.Fatalf("final status %+v", st)
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, resultsSpec, seed)) {
		t.Fatal("WriteFinal differs from the dse.Engine run")
	}
}

// TestResultsProgressLog: with ProgressEvery set, a post that crosses
// the next multiple logs one live-front line, computed after the lock
// is released from a snapshot of the points accepted so far.
func TestResultsProgressLog(t *testing.T) {
	const seed, every = uint64(5), 8
	_, lines := sweepLines(t, resultsSpec, seed)
	var logBuf bytes.Buffer
	srv, err := New(Config{Spec: resultsSpec, Seed: seed, ProgressEvery: every, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	l := requestLease(t, h, "w").Lease
	for lo := 0; lo < 2*every; lo += every {
		if code, _, body := postLines(t, h, "w", l, lines[lo:lo+every]); code != http.StatusOK {
			t.Fatalf("HTTP %d (%s)", code, body)
		}
	}
	var want []dse.Result
	for _, line := range lines[:2*every] {
		r, err := dse.DecodeResult(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	var live []string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, " live ") {
			live = append(live, line)
		}
	}
	if len(live) != 2 {
		t.Fatalf("got %d live-front lines, want 2:\n%s", len(live), logBuf.String())
	}
	prefix := fmt.Sprintf("sweep %s live %d/%d points, front %d, hv-norm ", srv.boot.id, 2*every, len(lines), len(dse.GroupedFront(want)))
	if !strings.HasPrefix(live[1], prefix) {
		t.Fatalf("live line %q, want prefix %q", live[1], prefix)
	}
}

// TestResultsBodyLength: a chunked /results body (no declared length)
// ingests as a sized one does, and a body declaring more than the
// 64 MiB cap is refused with 400 before it is read.
func TestResultsBodyLength(t *testing.T) {
	const seed = uint64(5)
	_, lines := sweepLines(t, resultsSpec, seed)
	srv, err := New(Config{Spec: resultsSpec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var gotLength int64
	var gotEncoding []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotLength, gotEncoding = r.ContentLength, r.TransferEncoding
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	path := "/results?worker=w&sweep=" + srv.boot.id + "&lease=1"

	// A reader without a Len makes the client send the body chunked.
	body := io.MultiReader(bytes.NewReader(bytes.Join(lines[:8], []byte("\n"))))
	resp, err := http.Post(ts.URL+path, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	var ack ResultAck
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || ack.Accepted != 8 {
		t.Fatalf("chunked post: HTTP %d, ack %+v (%v); want 8 accepted", resp.StatusCode, ack, err)
	}
	if gotLength != -1 || len(gotEncoding) != 1 || gotEncoding[0] != "chunked" {
		t.Fatalf("server saw length %d, transfer encoding %v; want a chunked body", gotLength, gotEncoding)
	}

	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(lines[8]))
	req.ContentLength = maxResultsBody + 1
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized post: HTTP %d (%s), want 400 naming the size", rec.Code, rec.Body.String())
	}
	if st := srv.Status(); st.Done != 8 {
		t.Fatalf("Done = %d, want the 8 chunked lines only", st.Done)
	}
}

// TestResultsPooledBatchesKeepAcceptedLines: /results posts decode
// through pooled batches, one after another, and the Accumulator keeps
// each accepted line as a slice of its post's body. After every post,
// every line accepted by an earlier post is still the submitted bytes,
// and the final file equals the in-process run. The posts carry blank
// lines, a trailing newline and repeats of accepted lines, so the
// in-place scan skips, splits and dedupes as the split did.
func TestResultsPooledBatchesKeepAcceptedLines(t *testing.T) {
	const seed, batch = uint64(5), 8
	_, lines := sweepLines(t, resultsSpec, seed)
	srv, err := New(Config{Spec: resultsSpec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h, acc := srv.Handler(), srv.boot.acc
	for lo := 0; lo < len(lines); lo += batch {
		hi := min(lo+batch, len(lines))
		post := append([][]byte{{}}, lines[lo:hi]...)
		if lo > 0 {
			post = append(post, lines[lo-1], []byte("  "))
		}
		post = append(post, []byte{})
		code, ack, body := postLinesSweep(t, h, "w", srv.boot.id, 1, post)
		if code != http.StatusOK || ack.Accepted != hi-lo {
			t.Fatalf("post [%d,%d): HTTP %d (%s), %d accepted", lo, hi, code, body, ack.Accepted)
		}
		for id := 0; id < hi; id++ {
			if !bytes.Equal(acc.Raw(id), lines[id]) {
				t.Fatalf("after post [%d,%d): point %d holds %q, want the submitted line", lo, hi, id, acc.Raw(id))
			}
		}
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, resultsSpec, seed)) {
		t.Fatal("final file differs from the in-process run")
	}
}

// BenchmarkHandleResults measures one 8-line /results post through
// the coordinator's HTTP handler. "accepted" posts lines the sweep has
// not seen yet, so each is decoded, validated, merged and appended to
// the checkpoint log (the server is rebuilt, off the clock, before the
// sweep would complete); "duplicate" re-posts one accepted batch, so
// each line is decoded and deduplicated.
func BenchmarkHandleResults(b *testing.B) {
	const seed, batch = uint64(3), 8
	_, lines := sweepLines(b, resultsSpec, seed)
	var bodies [][]byte
	for lo := 0; lo+batch < len(lines); lo += batch {
		bodies = append(bodies, bytes.Join(lines[lo:lo+batch], []byte("\n")))
	}
	var srv *Server
	var h http.Handler
	var path string
	reset := func() {
		if srv != nil {
			srv.Close()
		}
		var err error
		srv, err = New(Config{Spec: resultsSpec, Seed: seed, CheckpointPath: filepath.Join(b.TempDir(), "sweep.jsonl")})
		if err != nil {
			b.Fatal(err)
		}
		h = srv.Handler()
		path = "/results?worker=w&sweep=" + srv.boot.id + "&lease=1"
	}
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d (%s)", rec.Code, rec.Body.String())
		}
	}
	b.Run("accepted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(bodies)
			if k == 0 {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			post(bodies[k])
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		reset()
		post(bodies[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(bodies[0])
		}
	})
	srv.Close()
}
