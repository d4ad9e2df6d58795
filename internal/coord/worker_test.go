package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// quickWorker returns a WorkerConfig tuned for tests: tiny backoff,
// small flush batches.
func quickWorker(url, id string) WorkerConfig {
	return WorkerConfig{
		URL:         url,
		ID:          id,
		FlushPoints: 3,
		Workers:     2,
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// TestWorkerEndToEnd runs workers against a live coordinator with no
// faults: the sweep completes and the output is byte-identical to a
// standalone run. The second case spans the mixed axes — a custom
// core mix, a multi-app scenario and contended memory models, under
// list and anneal — on two workers.
func TestWorkerEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		seed       uint64
		workers    int
	}{
		{"smoke", "smoke", 1, 1},
		{"mixed-mem", "plat=2xrisc+2xdsp,homog4;wl=multi:jpeg+carradio,jpeg;heur=list,anneal;mem=bank:4x2,bw:8", 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Spec: tc.spec, Seed: tc.seed, Chunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()

			ws := make([]*Worker, tc.workers)
			errs := make(chan error, len(ws))
			for i := range ws {
				ws[i] = NewWorker(quickWorker(hs.URL, fmt.Sprintf("w%d", i)))
				go func(w *Worker) { errs <- w.Run(context.Background()) }(ws[i])
			}
			for range ws {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			submitted := 0
			for _, w := range ws {
				submitted += w.Submitted
			}
			if submitted != len(srv.Points()) {
				t.Fatalf("workers submitted %d, want %d", submitted, len(srv.Points()))
			}
			var got bytes.Buffer
			if err := srv.WriteFinal(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), referenceBytes(t, tc.spec, tc.seed)) {
				t.Fatal("coordinated output differs from the standalone run")
			}
		})
	}
}

// failPath injects a transport error for one URL path, toggleable at
// runtime — the shape of "the coordinator process vanished" as seen
// from a worker mid-submit.
type failPath struct {
	base http.RoundTripper
	path string

	mu   sync.Mutex
	fail bool
}

func (f *failPath) set(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *failPath) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail && strings.HasPrefix(req.URL.Path, f.path) {
		return nil, errors.New("injected: coordinator unreachable")
	}
	return f.base.RoundTrip(req)
}

// TestWorkerVanishCheckpointAndRejoin exercises graceful degradation:
// the coordinator becomes unreachable mid-lease, the worker finishes
// evaluating, checkpoints the undelivered lines locally and exits
// with an error; a rejoining worker (same identity, same directory)
// resubmits the checkpoint without re-evaluating and completes the
// sweep.
func TestWorkerVanishCheckpointAndRejoin(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	dir := t.TempDir()

	// Results delivery fails from the start: hello and lease succeed,
	// so the worker accepts work it can never deliver.
	tr := &failPath{base: http.DefaultTransport, path: "/results"}
	tr.set(true)
	cfg := quickWorker(hs.URL, "w0")
	cfg.Client = &http.Client{Transport: tr}
	cfg.CheckpointDir = dir
	cfg.MaxAttempts = 2
	w := NewWorker(cfg)
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("worker reported success with an unreachable coordinator")
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "w0-sw-*-lease*.jsonl"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no local checkpoint written (%v, %v)", ckpts, err)
	}
	if st := srv.Status(); st.Done != 0 {
		t.Fatalf("server accepted %d points through a dead transport", st.Done)
	}

	// The coordinator comes back; the worker rejoins.
	tr.set(false)
	w2 := NewWorker(func() WorkerConfig {
		c := quickWorker(hs.URL, "w0")
		c.CheckpointDir = dir
		return c
	}())
	if err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "w0-sw-*-lease*.jsonl")); len(left) != 0 {
		t.Fatalf("resubmitted checkpoints not removed: %v", left)
	}
	st := srv.Status()
	if !st.Complete {
		t.Fatalf("sweep incomplete after rejoin: %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("resubmitted checkpoint counted as duplicates (%d): it was never delivered", st.Duplicates)
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("output differs after vanish + rejoin")
	}
}

// TestMergeCoordinatorLogAndLeaseCheckpoints is the offline fallback
// `dse -merge` serves for a farm: a coordinator's checkpoint log holds
// the leases it received, the lease a worker could not deliver sits in
// its -worker-dir checkpoint, and merging the files yields the
// standalone bytes.
func TestMergeCoordinatorLogAndLeaseCheckpoints(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	log := filepath.Join(t.TempDir(), "coord.jsonl")
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4, CheckpointPath: log})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	delivered := requestLease(t, h, "w0")
	if delivered.Lease == nil {
		t.Fatal("no first lease")
	}
	l := delivered.Lease
	if code, _, body := postLines(t, h, "w0", l, lines[l.Lo:l.Hi]); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}

	// The remaining leases go to workers that cannot deliver: each
	// checkpoints its lease under the shared -worker-dir and exits.
	tr := &failPath{base: http.DefaultTransport, path: "/results"}
	tr.set(true)
	hs := httptest.NewServer(h)
	defer hs.Close()
	dir := t.TempDir()
	for i := 1; srv.Status().PendingPoints > 0; i++ {
		cfg := quickWorker(hs.URL, fmt.Sprintf("w%d", i))
		cfg.Client = &http.Client{Transport: tr}
		cfg.CheckpointDir = dir
		cfg.MaxAttempts = 1
		if err := NewWorker(cfg).Run(context.Background()); err == nil {
			t.Fatal("worker reported success with an unreachable coordinator")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "*-sw-*-lease*.jsonl"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no lease checkpoints written (%v, %v)", ckpts, err)
	}

	acc, header, err := dse.MergeShards(append([]string{log}, ckpts...))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := acc.WriteTo(&got, header); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("merged coordinator log + lease checkpoints differ from the standalone run")
	}
}

// TestWorkerResubmitsTornLeaseCheckpoint: a lease checkpoint whose
// final line was torn (a crash mid-write) still delivers its intact
// lines on rejoin, byte for byte, and is removed afterwards instead of
// being skipped on every rejoin forever. The worker never re-evaluates
// the delivered points, and the output matches the standalone bytes.
func TestWorkerResubmitsTornLeaseCheckpoint(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const intact = 5
	h := srv.boot.header
	h.Shard = &dse.Shard{Lo: 0, Hi: intact + 1}
	var file bytes.Buffer
	if err := dse.WriteHeader(&file, h); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[:intact] {
		file.Write(line)
		file.WriteByte('\n')
	}
	file.Write(lines[intact][:len(lines[intact])/2])
	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("w0-%s-lease1.jsonl", SweepID(h)))
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	evaluated := map[int]bool{}
	cfg := quickWorker(hs.URL, "w0")
	cfg.CheckpointDir = dir
	cfg.OnResult = func(r dse.Result) {
		mu.Lock()
		evaluated[r.Point.ID] = true
		mu.Unlock()
	}
	w := NewWorker(cfg)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn lease checkpoint not removed after resubmission (%v)", err)
	}
	for id := 0; id < intact; id++ {
		if evaluated[id] {
			t.Fatalf("point %d re-evaluated: its intact checkpoint line was not accepted", id)
		}
	}
	if st := srv.Status(); !st.Complete || st.Duplicates != 0 || w.Submitted != len(lines) {
		t.Fatalf("status %+v, %d submitted; want complete, no duplicates, %d submitted", st, w.Submitted, len(lines))
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("output differs after resubmitting a torn lease checkpoint")
	}
}

// TestOldFormatLeaseCheckpoint: a lease checkpoint written while
// dse.Shard still carried "index" and "count" members merges with the
// coordinator's log (dse -merge) and is resubmitted on rejoin, byte
// for byte, without re-evaluating its points.
func TestOldFormatLeaseCheckpoint(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	_, lines := sweepLines(t, spec, seed)
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const hi = 6
	writeFile := func(path string, h dse.Header, lines [][]byte) []byte {
		var file bytes.Buffer
		if err := dse.WriteHeader(&file, h); err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			file.Write(line)
			file.WriteByte('\n')
		}
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return file.Bytes()
	}
	h := srv.boot.header
	dir := t.TempDir()
	ckpt := filepath.Join(dir, fmt.Sprintf("w0-%s-lease1.jsonl", SweepID(h)))
	h.Shard = &dse.Shard{Lo: 0, Hi: hi}
	data := writeFile(ckpt, h, lines[:hi])
	old := bytes.Replace(data, []byte(`"shard":{"lo":`), []byte(`"shard":{"index":0,"count":1,"lo":`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("checkpoint header has no shard range to rewrite")
	}
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}

	log := filepath.Join(t.TempDir(), "coord.jsonl")
	writeFile(log, srv.boot.header, lines[hi:])
	acc, header, err := dse.MergeShards([]string{log, ckpt})
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if _, err := acc.WriteTo(&merged, header); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("merged coordinator log + old-format lease checkpoint differ from the standalone run")
	}

	var mu sync.Mutex
	evaluated := map[int]bool{}
	cfg := quickWorker(hs.URL, "w0")
	cfg.CheckpointDir = dir
	cfg.OnResult = func(r dse.Result) {
		mu.Lock()
		evaluated[r.Point.ID] = true
		mu.Unlock()
	}
	w := NewWorker(cfg)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("old-format lease checkpoint not removed after resubmission (%v)", err)
	}
	for id := 0; id < hi; id++ {
		if evaluated[id] {
			t.Fatalf("point %d re-evaluated: its checkpointed line was not resubmitted", id)
		}
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("output differs after resubmitting an old-format lease checkpoint")
	}
}

// TestWorkerRefusesSpecHashMismatch checks the first-lease drift
// guard: a worker whose local expansion hashes differently refuses the
// sweep instead of submitting conflicting bytes later.
func TestWorkerRefusesSpecHashMismatch(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		h := srv.boot.header
		h.SpecHash = "0000000000000000"
		json.NewEncoder(w).Encode(LeaseResponse{
			Lease:  &Lease{Sweep: SweepID(h), ID: 1, Lo: 0, Hi: 4, DeadlineMS: 30000},
			Header: &h,
		})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	cfg := quickWorker(hs.URL, "w0")
	cfg.MaxAttempts = 1
	err = NewWorker(cfg).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "spec hash mismatch") {
		t.Fatalf("drifted worker joined anyway: %v", err)
	}
}

// TestWorkerConflictNotRetried checks a 409 is terminal for the
// worker — retrying poison bytes would never succeed — and that the
// rejected batch is submitted exactly once.
func TestWorkerConflictNotRetried(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var submits int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		h := srv.boot.header
		json.NewEncoder(w).Encode(LeaseResponse{
			Lease:  &Lease{Sweep: SweepID(h), ID: 1, Lo: 0, Hi: 4, DeadlineMS: 30000},
			Header: &h,
		})
	})
	mux.HandleFunc("POST /results", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		submits++
		mu.Unlock()
		http.Error(w, "dse: point 0 has conflicting results", http.StatusConflict)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	cfg := quickWorker(hs.URL, "w0")
	cfg.FlushPoints = 100 // one flush for the whole lease
	err = NewWorker(cfg).Run(context.Background())
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting submit: %v, want ErrConflict", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 1 {
		t.Fatalf("rejected batch submitted %d times, want 1 (no retry)", submits)
	}
}

// stubCoord is a one-lease coordinator: it grants [0,n) of its sweep
// once, answers Done afterwards, and records the line count of every
// /results post it acks.
type stubCoord struct {
	mu     sync.Mutex
	leased bool
	posts  []int
}

func newStubCoord(t *testing.T, h dse.Header, n int) (*stubCoord, *httptest.Server) {
	t.Helper()
	s := &stubCoord{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.leased {
			json.NewEncoder(w).Encode(LeaseResponse{Done: true})
			return
		}
		s.leased = true
		json.NewEncoder(w).Encode(LeaseResponse{
			Lease:  &Lease{Sweep: SweepID(h), ID: 1, Lo: 0, Hi: n, DeadlineMS: 30000},
			Header: &h,
		})
	})
	mux.HandleFunc("POST /results", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lines := bytes.Count(body, []byte("\n"))
		s.mu.Lock()
		s.posts = append(s.posts, lines)
		s.mu.Unlock()
		json.NewEncoder(w).Encode(ResultAck{Accepted: lines})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return s, hs
}

func (s *stubCoord) postSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.posts)
}

// TestWorkerFlushCadence: with FlushPoints unset a lease of N points
// is posted in batches of max(8, ⌈N/4⌉), so it costs at most four
// /results posts; a lease of 32 points or fewer keeps 8-point
// batches. A FlushPoints setting still wins.
func TestWorkerFlushCadence(t *testing.T) {
	srv, err := New(Config{Spec: "default", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, flush int
		want     []int
	}{
		{5, 0, []int{5}},
		{32, 0, []int{8, 8, 8, 8}},
		{33, 0, []int{9, 9, 9, 6}},
		{150, 0, []int{38, 38, 38, 36}},
		{10, 3, []int{3, 3, 3, 1}},
	} {
		t.Run(fmt.Sprintf("n%d-flush%d", tc.n, tc.flush), func(t *testing.T) {
			stub, hs := newStubCoord(t, srv.boot.header, tc.n)
			cfg := quickWorker(hs.URL, "w0")
			cfg.FlushPoints = tc.flush
			w := NewWorker(cfg)
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := stub.postSizes(); !slices.Equal(got, tc.want) {
				t.Fatalf("posted batches %v, want %v", got, tc.want)
			}
			if w.Submitted != tc.n {
				t.Fatalf("%d acked, want %d", w.Submitted, tc.n)
			}
		})
	}
}

// TestWorkerCancelMidLeaseLosesLessThanABatch: a worker killed in the
// middle of a 150-point lease (batches of 38) has delivered every
// batch it completed, so fewer than one batch of the results it had
// released is unacked at the kill, and nothing is posted after it.
func TestWorkerCancelMidLeaseLosesLessThanABatch(t *testing.T) {
	const n, batch = 150, 38
	srv, err := New(Config{Spec: "default", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stub, hs := newStubCoord(t, srv.boot.header, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var w *Worker
	seen, unacked := 0, 0
	cfg := quickWorker(hs.URL, "w0")
	cfg.FlushPoints = 0
	// OnResult and the batch posts both run on the engine's collector
	// goroutine, so w.Submitted here counts every ack so far.
	cfg.OnResult = func(dse.Result) {
		if seen++; seen == batch+batch/2 {
			unacked = seen - w.Submitted
			cancel()
		}
	}
	w = NewWorker(cfg)
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled worker returned %v", err)
	}
	if got := stub.postSizes(); !slices.Equal(got, []int{batch}) {
		t.Fatalf("posted batches %v, want the one completed batch of %d", got, batch)
	}
	if unacked >= batch {
		t.Fatalf("%d released points unacked at the kill, want fewer than a batch (%d)", unacked, batch)
	}
}

// TestWorkerIDsReachTheCoordinatorIntact: the /results query is
// escaped, so an ID with a space, '&', '#' or '+' is attributed to
// exactly that worker; an ID that would lead a checkpoint file out of
// the worker directory is refused before any request or write.
func TestWorkerIDsReachTheCoordinatorIntact(t *testing.T) {
	for _, id := range []string{"lab 1", "a&sweep=evil", "a#b", "a+b"} {
		t.Run(id, func(t *testing.T) {
			srv, err := New(Config{Spec: "smoke", Seed: 1, Chunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			// A misrouted post can leave the worker waiting out lease
			// expiries; the deadline turns that into a failure.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := NewWorker(quickWorker(hs.URL, id)).Run(ctx); err != nil {
				t.Fatal(err)
			}
			var metrics bytes.Buffer
			if err := srv.Registry().WritePrometheus(&metrics); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("coord_worker_accepted_total{worker=%q} %d\n", id, len(srv.Points()))
			if !strings.Contains(metrics.String(), want) {
				t.Fatalf("scrape lacks %q:\n%s", want, metrics.String())
			}
		})
	}
	for _, id := range []string{"../x", "a/b", "a*b", "a\nb"} {
		t.Run(fmt.Sprintf("%q", id), func(t *testing.T) {
			srv, err := New(Config{Spec: "smoke", Seed: 1, Chunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			var requests atomic.Int64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				srv.Handler().ServeHTTP(w, r)
			}))
			defer hs.Close()
			root := t.TempDir()
			cfg := quickWorker(hs.URL, id)
			cfg.CheckpointDir = filepath.Join(root, "wdir")
			if err := NewWorker(cfg).Run(context.Background()); err == nil {
				t.Fatal("worker ran under an unsafe ID")
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("refused worker sent %d requests", n)
			}
			if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
				t.Fatalf("refused worker wrote %v (%v)", entries, err)
			}
		})
	}
}

// TestWorkerKeepsOnePoolAcrossSweeps: one single-threaded worker
// serves a service-mode coordinator's two sweeps in turn. Both final
// files equal standalone bytes, and the worker builds each platform
// and graph as often as one EvalContext evaluating both sweeps in
// order does — once per worker life, not once per lease.
func TestWorkerKeepsOnePoolAcrossSweeps(t *testing.T) {
	sweeps := []struct {
		spec string
		seed uint64
	}{
		{"smoke", 1},
		{"plat=homog4,2xrisc+2xdsp;wl=jpeg,synth12;heur=list,anneal;fid=mvp,vp64,pipe4;mem=ideal,bank:4x2", 5},
	}
	srv, err := New(Config{LeaseTimeout: 30 * time.Second, Chunks: 6})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	h := srv.Handler()

	eo := dse.NewEvalObs(obs.NewRegistry())
	cfg := quickWorker(hs.URL, "w0")
	cfg.Workers = 1
	cfg.Obs = eo
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- NewWorker(cfg).Run(ctx) }()

	ids := make([]string, len(sweeps))
	for i, s := range sweeps {
		_, rr := registerSweep(t, h, s.spec, s.seed)
		ids[i] = rr.Sweep.ID
		waitUntil(t, 60*time.Second, func() bool {
			var row SweepStatus
			doJSON(t, h, http.MethodGet, "/sweeps/"+ids[i], nil, &row)
			return row.State == SweepDone
		})
	}
	cancel() // service mode: the worker polls forever
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker: %v", err)
	}

	ref := dse.NewEvalObs(obs.NewRegistry())
	c := dse.NewEvalContext()
	c.SetObs(ref)
	for i, s := range sweeps {
		if !bytes.Equal(fetchResult(t, h, ids[i]), referenceBytes(t, s.spec, s.seed)) {
			t.Fatalf("sweep %q bytes differ from the standalone run", s.spec)
		}
		points, _, err := dse.Expand(s.spec, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			c.Evaluate(p)
		}
	}
	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{"platform builds", eo.PlatBuilds.Value(), ref.PlatBuilds.Value()},
		{"graph misses", eo.GraphMisses.Value(), ref.GraphMisses.Value()},
	} {
		if m.got != m.want {
			t.Fatalf("worker %s %d, one context over both sweeps %d", m.name, m.got, m.want)
		}
	}
}
