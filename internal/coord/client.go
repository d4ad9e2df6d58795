package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// ErrConflict is returned when the coordinator rejects submitted
// result bytes as conflicting with an already-accepted line. This is
// never a transient fault — it means this worker's engine produces
// different bytes than the fleet's, and retrying would resubmit the
// same poison — so the worker stops instead of backing off.
var ErrConflict = errors.New("coord: coordinator rejected results as conflicting")

// errSweepCancelled marks a lease abandoned because its sweep was
// cancelled mid-flight; the worker drops the work and asks for the
// next lease.
var errSweepCancelled = errors.New("coord: sweep cancelled")

// WorkerConfig parameterizes a sweep worker.
type WorkerConfig struct {
	// URL is the coordinator's base URL, e.g. http://host:9090.
	URL string
	// ID is the worker's identity; it seeds the backoff jitter and
	// names the local fallback checkpoints, so Run refuses one with a
	// path separator, "..", a glob metacharacter or a control
	// character. Defaults to host-pid.
	ID string
	// FlushPoints is how many completed points accumulate before a
	// partial submit, bounding work lost to a worker crash. Zero (the
	// default) flushes every quarter of each lease, but no less than
	// 8 points: a lease costs at most four /results posts, and a crash
	// loses less than one such batch.
	FlushPoints int
	// Client is the HTTP client; nil means http.DefaultClient. Chaos
	// tests inject a fault-wrapped transport here.
	Client *http.Client
	// Log receives progress lines; nil discards them.
	Log *log.Logger
	// CheckpointDir, when non-empty, is where the worker saves a
	// shard-form checkpoint of a finished lease it could not deliver
	// because the coordinator vanished. Rejoining resubmits and
	// removes it.
	CheckpointDir string
	// MaxAttempts bounds consecutive failed attempts of any one
	// request before the worker gives up on the coordinator (0 means
	// 10). Between attempts the worker sleeps the backoff schedule.
	MaxAttempts int
	// Backoff bounds the retry delays; zero values default to
	// 50ms..2s.
	BackoffBase, BackoffMax time.Duration
	// OnResult, when non-nil, observes every locally evaluated result
	// before submission. Chaos tests use it to kill a worker
	// mid-lease (by cancelling the worker's context).
	OnResult func(dse.Result)
	// Workers sizes the evaluation pool; <= 0 means GOMAXPROCS.
	Workers int
	// Obs, when non-zero, instruments the evaluation pool. Telemetry
	// never changes result bytes.
	Obs dse.EvalObs
	// Tracer, when set, records lease/eval/flush spans.
	Tracer *obs.Tracer
}

// workerSweep is the worker's cached, hash-verified expansion of one
// tenant sweep — the point list it slices leases out of.
type workerSweep struct {
	header dse.Header
	points []dse.Point
}

// Worker evaluates leased point ranges against a coordinator until
// the farm completes (single-shot coordinators only), the context is
// cancelled, or the coordinator stays unreachable past the retry
// budget. A multi-tenant worker serves whatever sweeps it is leased
// work from, verifying and caching each sweep's expansion on first
// contact.
type Worker struct {
	cfg     WorkerConfig
	client  *http.Client
	log     *log.Logger
	backoff *Backoff
	sweeps  map[string]*workerSweep
	// eng is the worker's one evaluation pool: its EvalContexts, and
	// with them kernels, platforms and graph prototypes, live as long
	// as the worker, across leases and sweeps.
	eng dse.Engine
	// done is set when a result ack reports farm completion, so the
	// worker exits without needing one more /lease round trip (the
	// coordinator may already be shutting down by then).
	done bool

	// Submitted and Duplicate tally the coordinator's acks, exposed
	// for tests and exit logs.
	Submitted, Duplicate int
}

// NewWorker builds a worker for the given coordinator.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	return &Worker{
		cfg:     cfg,
		client:  cfg.Client,
		log:     cfg.Log,
		backoff: NewBackoff(cfg.BackoffBase, cfg.BackoffMax, h.Sum64()),
		sweeps:  make(map[string]*workerSweep),
		eng:     dse.Engine{Workers: cfg.Workers, Obs: cfg.Obs, Tracer: cfg.Tracer},
	}
}

// Run joins the coordinator and works leases until the farm is done.
// It returns nil on farm completion, ctx.Err() on cancellation, and
// an error when the coordinator is unreachable past the retry budget
// or rejects this worker's results as conflicting. A worker ID that
// cannot name a checkpoint file inside CheckpointDir is refused before
// the first request.
func (w *Worker) Run(ctx context.Context) error {
	if err := checkWorkerID(w.cfg.ID); err != nil {
		return err
	}
	if err := w.resubmitCheckpoints(ctx); err != nil {
		return err
	}
	for {
		if w.done {
			w.log.Printf("%s: farm complete (%d submitted, %d duplicates)", w.cfg.ID, w.Submitted, w.Duplicate)
			return nil
		}
		var lr LeaseResponse
		if err := w.call(ctx, "/lease", LeaseRequest{Worker: w.cfg.ID}, &lr); err != nil {
			return err
		}
		switch {
		case lr.Done:
			w.log.Printf("%s: farm complete (%d submitted, %d duplicates)", w.cfg.ID, w.Submitted, w.Duplicate)
			return nil
		case lr.Lease == nil:
			delay := time.Duration(lr.RetryMS) * time.Millisecond
			if delay <= 0 {
				delay = 200 * time.Millisecond
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
		default:
			sw, err := w.resolveSweep(*lr.Lease, lr.Header)
			if err != nil {
				return err
			}
			if err := w.workLease(ctx, sw, *lr.Lease); err != nil {
				if errors.Is(err, errSweepCancelled) {
					continue
				}
				return err
			}
		}
	}
}

// checkWorkerID refuses a worker ID that would misplace or mismatch
// its checkpoint files: a path separator or ".." leads out of
// CheckpointDir, a glob metacharacter breaks the rejoin scan, and a
// control character has no business in a file name or a log line.
func checkWorkerID(id string) error {
	if strings.ContainsAny(id, `/\*?[`) || strings.Contains(id, "..") || strings.ContainsFunc(id, unicode.IsControl) {
		return fmt.Errorf(`coord: worker ID %q may not contain a path separator, "..", a glob metacharacter (*?[\) or a control character`, id)
	}
	return nil
}

// resolveSweep returns the worker's verified expansion of the leased
// sweep, building it on first contact: the spec from the lease header
// is re-expanded locally and the point-list hash compared against the
// coordinator's — a drifted engine refuses the sweep here, before it
// can submit a single conflicting line. The cache makes affinity pay
// off: repeat leases of the same sweep skip straight to evaluation.
func (w *Worker) resolveSweep(l Lease, h *dse.Header) (*workerSweep, error) {
	if sw, ok := w.sweeps[l.Sweep]; ok {
		return sw, nil
	}
	if h == nil {
		return nil, fmt.Errorf("coord: lease for unknown sweep %s carried no header", l.Sweep)
	}
	points, local, err := dse.Expand(h.Spec, h.Seed)
	if err != nil {
		return nil, fmt.Errorf("coord: sweep %s spec: %w", l.Sweep, err)
	}
	if err := h.Check(local); err != nil {
		return nil, fmt.Errorf("coord: sweep %s does not match its local expansion (%v): engine drift, refusing sweep", l.Sweep, err)
	}
	sw := &workerSweep{header: *h, points: points}
	w.sweeps[l.Sweep] = sw
	w.log.Printf("%s: joined sweep %s: %q seed %d (%d points)", w.cfg.ID, l.Sweep, h.Spec, h.Seed, len(points))
	return sw, nil
}

// workLease evaluates the leased range on the worker's engine,
// submitting partial batches every FlushPoints completed points (a
// quarter-lease by default) and heartbeating in the background. A
// Cancelled ack or heartbeat aborts the evaluation and returns
// errSweepCancelled — the sweep's tenant withdrew it, so the
// remaining work is dropped, not delivered. If the coordinator
// vanishes mid-lease the worker finishes evaluating, checkpoints the
// undelivered lines locally, and returns the transport error so the
// caller can rejoin later.
func (w *Worker) workLease(ctx context.Context, sw *workerSweep, l Lease) error {
	w.log.Printf("%s: lease %s/%d [%d,%d)", w.cfg.ID, l.Sweep, l.ID, l.Lo, l.Hi)
	// The lease span sits on the coordination row (tid -1), above the
	// per-worker eval rows the engine emits.
	if w.cfg.Tracer != nil {
		leaseStart := time.Now()
		defer func() {
			w.cfg.Tracer.Span("lease", "coord", -1, leaseStart, time.Since(leaseStart),
				obs.Arg{Key: "lease", Val: l.ID},
				obs.Arg{Key: "lo", Val: int64(l.Lo)},
				obs.Arg{Key: "hi", Val: int64(l.Hi)})
		}()
	}
	// leaseCtx aborts the evaluation early on cancellation; cancelled
	// distinguishes that from the caller's ctx ending.
	leaseCtx, stopLease := context.WithCancel(ctx)
	defer stopLease()
	var cancelled atomic.Bool
	abandon := func() {
		cancelled.Store(true)
		stopLease()
	}
	go w.heartbeatLoop(leaseCtx, l, abandon)

	flushEvery := w.cfg.FlushPoints
	if flushEvery <= 0 {
		flushEvery = max(8, (l.Hi-l.Lo+3)/4)
	}
	var pending bytes.Buffer
	pendingPoints := 0
	flush := func() error {
		if pendingPoints == 0 {
			return nil
		}
		ack, err := w.submit(ctx, l.Sweep, l.ID, pending.Bytes())
		if err != nil {
			return err
		}
		if ack.Cancelled {
			abandon()
			return errSweepCancelled
		}
		pending.Reset()
		pendingPoints = 0
		return nil
	}

	var evalErr error
	// OnResult runs on the engine's collector goroutine, in point
	// order — so pending accumulates the exact bytes a standalone run
	// would write for this range.
	w.eng.OnResult = func(r dse.Result) {
		if w.cfg.OnResult != nil {
			w.cfg.OnResult(r)
		}
		if err := dse.WriteResult(&pending, r); err != nil && evalErr == nil {
			evalErr = err
			return
		}
		pendingPoints++
		if pendingPoints >= flushEvery && evalErr == nil {
			if err := flush(); err != nil {
				// Keep evaluating: the lease is already paid for and
				// the undelivered lines checkpoint locally below. Only
				// remember the first delivery failure.
				evalErr = err
			}
		}
	}
	w.eng.RunContext(leaseCtx, sw.points[l.Lo:l.Hi])
	if cancelled.Load() || errors.Is(evalErr, errSweepCancelled) {
		w.log.Printf("%s: lease %s/%d abandoned: sweep cancelled", w.cfg.ID, l.Sweep, l.ID)
		return errSweepCancelled
	}
	if evalErr == nil {
		evalErr = flush()
	}
	if evalErr != nil {
		if errors.Is(evalErr, ErrConflict) || errors.Is(evalErr, errSweepCancelled) || ctx.Err() != nil {
			return evalErr
		}
		// Coordinator vanished: save what we could not deliver in
		// shard-file form and surface the error.
		if err := w.checkpointLocal(sw, l, pending.Bytes()); err != nil {
			w.log.Printf("%s: local checkpoint failed: %v", w.cfg.ID, err)
		}
		return evalErr
	}
	return nil
}

// heartbeatLoop keeps the lease alive while evaluation runs, four
// times per lease deadline (once a second if the lease names none).
// Transport failures are ignored — a missed heartbeat at worst gets
// the range reissued, and duplicated evaluation is harmless by
// construction — but a Cancelled verdict aborts the lease via abandon.
func (w *Worker) heartbeatLoop(ctx context.Context, l Lease, abandon func()) {
	every := time.Duration(l.DeadlineMS) * time.Millisecond / 4
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var hr HeartbeatResponse
			if err := w.callOnce(ctx, "/heartbeat", HeartbeatRequest{Worker: w.cfg.ID, Sweep: l.Sweep, Lease: l.ID}, &hr); err == nil && hr.Cancelled {
				abandon()
				return
			}
		}
	}
}

// submit posts a JSONL batch for one sweep, retrying transient
// failures with backoff. A 409 (conflict) maps to ErrConflict and is
// not retried; a Cancelled ack is returned for the caller to act on.
func (w *Worker) submit(ctx context.Context, sweepID string, leaseID int64, lines []byte) (ResultAck, error) {
	path := "/results?" + url.Values{
		"worker": {w.cfg.ID},
		"sweep":  {sweepID},
		"lease":  {strconv.FormatInt(leaseID, 10)},
	}.Encode()
	if w.cfg.Tracer != nil {
		flushStart := time.Now()
		defer func() {
			w.cfg.Tracer.Span("flush", "coord", -1, flushStart, time.Since(flushStart),
				obs.Arg{Key: "lease", Val: leaseID},
				obs.Arg{Key: "bytes", Val: int64(len(lines))})
		}()
	}
	var ack ResultAck
	err := w.retry(ctx, "submitting results", func() error {
		ack = ResultAck{}
		return w.post(ctx, path, "application/jsonl", lines, &ack)
	})
	if err != nil {
		return ResultAck{}, err
	}
	w.Submitted += ack.Accepted
	w.Duplicate += ack.Duplicates
	if ack.Done {
		w.done = true
	}
	return ack, nil
}

// call posts a JSON request and decodes a JSON response, retrying
// transient failures with the worker's backoff schedule.
func (w *Worker) call(ctx context.Context, path string, in, out any) error {
	return w.retry(ctx, path, func() error { return w.callOnce(ctx, path, in, out) })
}

// retry runs attempt until it succeeds, ctx ends, the coordinator
// answers ErrConflict (never transient), or MaxAttempts consecutive
// attempts have failed, sleeping the backoff schedule between
// attempts. what names the request in the give-up error.
func (w *Worker) retry(ctx context.Context, what string, attempt func() error) error {
	var lastErr error
	w.backoff.Reset()
	for i := 0; i < w.cfg.MaxAttempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = attempt()
		if lastErr == nil || errors.Is(lastErr, ErrConflict) {
			return lastErr
		}
		if err := sleepCtx(ctx, w.backoff.Next()); err != nil {
			return err
		}
	}
	return fmt.Errorf("coord: %s after %d attempts: %w", what, w.cfg.MaxAttempts, lastErr)
}

// callOnce is a single JSON request/response round trip.
func (w *Worker) callOnce(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return w.post(ctx, path, "application/json", body, out)
}

// post sends body to path once and decodes the JSON reply into out,
// mapping HTTP status to error class: 409 is ErrConflict, any other
// non-200 a transient error.
func (w *Worker) post(ctx context.Context, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrConflict, bytes.TrimSpace(raw))
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("coord: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// checkpointLocal saves undelivered result lines as a shard file (a
// sweep file whose header names the lease's range, which dse -merge
// also accepts) so a later rejoin (this process or a fresh one
// pointed at the same directory) can resubmit them without
// re-evaluating. The write is atomic and fsynced, so the file holds
// every line or none. The file name carries the sweep ID so
// resubmission can route the lines to the right tenant.
func (w *Worker) checkpointLocal(sw *workerSweep, l Lease, lines []byte) error {
	if w.cfg.CheckpointDir == "" || len(lines) == 0 {
		return nil
	}
	if err := os.MkdirAll(w.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(w.cfg.CheckpointDir, fmt.Sprintf("%s-%s-lease%d.jsonl", w.cfg.ID, l.Sweep, l.ID))
	h := sw.header
	h.Shard = &dse.Shard{Index: 0, Count: 1, Lo: l.Lo, Hi: l.Hi}
	err := dse.AtomicWriteFile(path, func(f io.Writer) error {
		if err := dse.WriteHeader(f, h); err != nil {
			return err
		}
		_, err := f.Write(lines)
		return err
	})
	if err != nil {
		return err
	}
	w.log.Printf("%s: checkpointed undelivered lease %s/%d to %s", w.cfg.ID, l.Sweep, l.ID, path)
	return nil
}

// resubmitCheckpoints replays any locally checkpointed lease files
// from an earlier run whose delivery failed, sending the original line
// bytes and deleting each file once the coordinator acks it —
// including a Cancelled ack, which means nobody wants the lines any
// more. A torn final line is dropped and the intact lines before it
// are sent (the coordinator's Accumulator still validates each one;
// the torn point is simply leased again).
func (w *Worker) resubmitCheckpoints(ctx context.Context) error {
	if w.cfg.CheckpointDir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(w.cfg.CheckpointDir, w.cfg.ID+"-sw-*-lease*.jsonl"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		lg, err := dse.ReadLog(path)
		if err != nil {
			w.log.Printf("%s: skipping bad checkpoint %s: %v", w.cfg.ID, path, err)
			continue
		}
		if lg == nil {
			os.Remove(path) // empty: nothing to deliver
			continue
		}
		sweepID := SweepID(lg.Header)
		ack, err := w.submit(ctx, sweepID, 0, bytes.Join(lg.Raw, []byte("\n")))
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		if ack.Cancelled {
			w.log.Printf("%s: dropped checkpoint %s: sweep %s cancelled", w.cfg.ID, path, sweepID)
			continue
		}
		w.log.Printf("%s: resubmitted %d checkpointed result(s) from %s (torn tail dropped: %t)", w.cfg.ID, len(lg.Results), path, lg.Torn)
	}
	return nil
}

// sleepCtx waits for the delay or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
