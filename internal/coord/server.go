package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// Config parameterizes a coordinator.
type Config struct {
	// Spec, when non-empty, registers one sweep at startup, exactly as
	// POST /sweeps would, and makes the coordinator single-shot: Done()
	// closes, and workers are told to exit, once that boot sweep is
	// terminal. Other sweeps (rescanned or registered later) do not
	// delay it. Empty Spec is the multi-tenant service mode — sweeps
	// arrive via POST /sweeps and the coordinator serves until stopped.
	Spec string
	// Seed is the boot sweep's seed; the whole determinism contract
	// hangs off it.
	Seed uint64
	// LeaseTimeout bounds how long a lease can go without a heartbeat
	// before its range is reclaimed; result posts do not extend it.
	// Default 30s.
	LeaseTimeout time.Duration
	// Chunks is the target number of fresh leases each sweep is cut
	// into (grant size = sweep estimated cost / Chunks; reissues
	// shrink from there). Default 32.
	Chunks int
	// CheckpointPath, when non-empty, is the boot sweep's log in place
	// of <sweep-id>.jsonl under CheckpointDir, with every sweep's
	// lifecycle: append-only JSONL (header, then accepted lines in
	// acceptance order) while active, rewritten as the canonical final
	// file on completion, removed on cancellation. A coordinator
	// restarted with Resume re-accepts it; only unacked work is lost.
	CheckpointPath string
	// Resume loads CheckpointPath instead of starting fresh. A boot
	// sweep log under CheckpointDir is always resumed.
	Resume bool
	// CheckpointDir, when non-empty, is the service's storage root:
	// every registry sweep keeps its crash-resumable log there as
	// <sweep-id>.jsonl (rewritten atomically into the canonical final
	// bytes on completion), and a restarted coordinator rescans the
	// directory and resumes every sweep it finds.
	CheckpointDir string
	// MaxSweeps bounds concurrently active sweeps; registration beyond
	// it is refused with 429 + Retry-After. Default 16.
	MaxSweeps int
	// DiskBudgetBytes bounds the total size of checkpoint logs under
	// CheckpointDir; registration past the budget is refused with 507 +
	// Retry-After. 0 means unlimited.
	DiskBudgetBytes int64
	// Clock is the one source of time for every protocol read and wait;
	// nil means the real clock. Tests inject a fake one.
	Clock Clock
	// Log receives progress lines; nil discards them.
	Log *log.Logger
	// ProgressEvery, when > 0, logs a live per-workload Pareto-front
	// and hypervolume snapshot each time that many further points of a
	// sweep complete.
	ProgressEvery int
}

// Clock reads and waits on time. NewTimer returns a channel that
// receives once d has passed, and a function that stops the timer.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) (<-chan time.Time, func() bool)
}

// realClock is the wall clock.
type realClock struct{}

// Now reads the wall clock.
func (realClock) Now() time.Time { return time.Now() }

// NewTimer starts a wall-clock timer.
func (realClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Server is the multi-tenant sweep coordinator: it owns the sweep
// registry, schedules lease grants fairly across tenants, and serves
// the worker protocol plus the registry API over HTTP. All state
// shares one mutex; handlers parse request bodies before taking it,
// so the critical sections stay short.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string // registration order; scheduling tie-break
	workers  map[string]*workerState
	draining bool
	// boot is the Config.Spec sweep, nil in service mode. A boot-mode
	// coordinator is single-shot: it is finished once boot is terminal.
	boot *sweep
	// wake is closed and replaced whenever a sweep is registered,
	// completes or is cancelled, and when a drain starts; idle /lease
	// requests wait on it to decide again.
	wake chan struct{}

	// reg and obs are the coordinator's telemetry; leaseObs is shared
	// by every sweep's table so the lease counters stay farm-global.
	reg      *obs.Registry
	obs      coordObs
	leaseObs leaseObs
	started  time.Time
}

// New builds a coordinator: it rescans CheckpointDir and resumes every
// sweep log found there, then registers the boot sweep (if any)
// through the same path as POST /sweeps.
func New(cfg Config) (*Server, error) {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.Chunks <= 0 {
		cfg.Chunks = 32
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:     cfg,
		sweeps:  make(map[string]*sweep),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		reg:     obs.NewRegistry(),
	}
	s.started = cfg.Clock.Now()
	s.initObs()
	if cfg.CheckpointDir != "" {
		if err := s.rescanDir(); err != nil {
			return nil, err
		}
	}
	if cfg.Spec != "" {
		points, header, err := dse.Expand(cfg.Spec, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// -checkpoint FILE resumes only with Resume; a log under
		// CheckpointDir always does, as for POST /sweeps.
		ckptPath, resume := cfg.CheckpointPath, cfg.Resume
		if ckptPath == "" {
			ckptPath, resume = s.dirLogPath(SweepID(header)), true
		}
		if s.boot, _, err = s.registerLocked(header, points, ckptPath, resume); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// dirLogPath names a sweep's log under CheckpointDir ("" without one).
func (s *Server) dirLogPath(id string) string {
	if s.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.CheckpointDir, id+".jsonl")
}

// registerLocked admits a sweep: it returns the live sweep with the
// same ID if there is one (created false), replaces a cancelled
// tombstone, and otherwise builds the sweep, re-accepting the log at
// ckptPath when resume is set. POST /sweeps and the boot sweep both
// come through here; admission control is the HTTP handler's.
func (s *Server) registerLocked(header dse.Header, points []dse.Point, ckptPath string, resume bool) (sw *sweep, created bool, err error) {
	if sw := s.sweeps[SweepID(header)]; sw != nil {
		if sw.state != SweepCancelled {
			return sw, false, nil
		}
		s.removeSweepLocked(sw) // re-registration revives fresh
	}
	var prior *dse.Log
	if resume {
		if prior, err = readSweepLog(ckptPath, header); err != nil {
			return nil, false, err
		}
	}
	if sw, err = s.adoptSweepLocked(header, points, ckptPath, prior); err != nil {
		return nil, false, err
	}
	s.cfg.Log.Printf("registered sweep %s: spec %q seed %d (%d points)", sw.id, header.Spec, header.Seed, len(points))
	return sw, true, nil
}

// rescanDir adopts every sweep log found in the checkpoint directory —
// the whole-farm crash recovery path: a coordinator killed with N
// sweeps active restarts, finds N logs, and resumes each one exactly
// where its accepted lines end. Each log is read once: its header
// names the sweep, its lines resume it. Stale atomic-write temp files
// are swept out first; files whose header does not reproduce its own
// spec hash locally are skipped (foreign engine), never adopted, and a
// log damaged anywhere but its final line is an error.
func (s *Server) rescanDir() error {
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	if stale, _ := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "sw-*.jsonl.tmp-*")); len(stale) > 0 {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "sw-*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		lg, err := dse.ReadLog(path)
		if err != nil {
			return fmt.Errorf("coord: resume %s: %w", path, err)
		}
		if lg == nil {
			continue
		}
		points, header, err := dse.Expand(lg.Header.Spec, lg.Header.Seed)
		if err == nil {
			err = lg.Header.Check(header)
		}
		if err != nil {
			s.cfg.Log.Printf("skipping checkpoint %s: its header does not match the local expansion of its spec (%v)", path, err)
			continue
		}
		if _, ok := s.sweeps[SweepID(header)]; ok {
			continue
		}
		sw, err := s.adoptSweepLocked(header, points, path, lg)
		if err != nil {
			return err
		}
		s.cfg.Log.Printf("recovered sweep %s from %s: %d/%d points", sw.id, path, sw.acc.Done(), sw.acc.Total())
	}
	return nil
}

// adoptSweepLocked builds, resumes and registers a sweep record,
// re-accepting prior's lines when the sweep resumes a checkpoint log
// (prior is nil for a fresh sweep). The caller holds s.mu (or is the
// single-threaded constructor) and has already checked that the ID is
// free and that prior's header is this sweep's.
func (s *Server) adoptSweepLocked(header dse.Header, points []dse.Point, ckptPath string, prior *dse.Log) (*sweep, error) {
	sw := newSweep(header, points, s.cfg.Clock.Now())
	sw.ckptPath = ckptPath
	sw.table = newLeaseTable(sw.costs, sw.totalCost/float64(s.cfg.Chunks), s.cfg.LeaseTimeout, sw.acc.Has)
	sw.table.obs = s.leaseObs
	if prior != nil {
		for i, r := range prior.Results {
			if _, err := sw.acc.AddResult(r, prior.Raw[i]); err != nil {
				return nil, fmt.Errorf("coord: resume %s: %w", ckptPath, err)
			}
		}
		if sw.acc.Done() > 0 {
			s.cfg.Log.Printf("resumed %d/%d points of sweep %s from %s", sw.acc.Done(), len(points), sw.id, ckptPath)
		}
	}
	sw.baseDone = sw.acc.Done()
	for i := range points {
		if sw.acc.Has(i) {
			sw.baseCost += sw.costs[i]
		}
	}
	sw.table.uncovered(0, len(points), 0)
	if err := sw.openCheckpoint(); err != nil {
		return nil, err
	}
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.registerSweepObsLocked(sw)
	s.wakeLocked()
	if sw.acc.Complete() {
		s.completeSweepLocked(sw)
	}
	return sw, nil
}

// wakeLocked releases every idle /lease request parked on s.wake so it
// decides again. Caller holds s.mu.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// completeSweepLocked retires a sweep whose every point has an
// accepted result: the sweep's Done channel closes, idle /lease
// requests wake, and the append log is atomically replaced with the
// canonical point-ordered final bytes. The rewrite still runs under
// s.mu, so whatever reads the sweep through the server afterwards
// finds the final file in place.
func (s *Server) completeSweepLocked(sw *sweep) {
	if sw.state != SweepActive {
		return
	}
	sw.state = SweepDone
	sw.finished = s.cfg.Clock.Now()
	sw.debt = 0
	close(sw.done)
	s.wakeLocked()
	if err := sw.closeCheckpoint(); err != nil {
		s.cfg.Log.Printf("sweep %s: closing checkpoint: %v", sw.id, err)
	}
	if err := sw.finalizeFile(); err != nil {
		s.cfg.Log.Printf("sweep %s: finalizing %s: %v", sw.id, sw.ckptPath, err)
	}
	s.cfg.Log.Printf("sweep %s complete: %d points (%d duplicate lines absorbed)",
		sw.id, sw.acc.Total(), sw.acc.Duplicates())
}

// cancelSweepLocked is the tenant-isolation teardown: reclaim every
// lease, remove the sweep's storage, and leave a tombstone so late
// submissions and heartbeats from its workers are answered with
// Cancelled (not errors) until the tombstone ages out. Other sweeps
// never notice.
func (s *Server) cancelSweepLocked(sw *sweep) {
	if sw.state == SweepCancelled {
		return
	}
	wasActive := sw.state == SweepActive
	n := sw.table.clear()
	sw.state = SweepCancelled
	sw.finished = s.cfg.Clock.Now()
	sw.debt = 0
	if err := sw.closeCheckpoint(); err != nil {
		s.cfg.Log.Printf("sweep %s: closing checkpoint: %v", sw.id, err)
	}
	sw.removeFile()
	if wasActive {
		close(sw.done)
	}
	s.wakeLocked()
	s.cfg.Log.Printf("sweep %s cancelled: reclaimed %d lease(s)", sw.id, n)
}

// removeSweepLocked drops a sweep record and its metric series
// entirely — tombstone expiry or re-registration after cancel.
func (s *Server) removeSweepLocked(sw *sweep) {
	delete(s.sweeps, sw.id)
	for i, id := range s.order {
		if id == sw.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.unregisterSweepObsLocked(sw.id)
}

// reclaimAndGCLocked expires overdue leases on every active sweep,
// retires leases whose ranges completed, garbage-collects workers not
// heard from within 4 x LeaseTimeout (dropping their metric series so
// a long-lived daemon's label set stays bounded), and expires
// cancelled sweeps' tombstones after as long.
func (s *Server) reclaimAndGCLocked(now time.Time) {
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.state != SweepActive {
			continue
		}
		if n := sw.table.reclaim(now); n > 0 {
			s.cfg.Log.Printf("sweep %s: reclaimed %d expired lease(s)", sw.id, n)
		}
		sw.table.closeCovered()
	}
	for name, ws := range s.workers {
		if now.Sub(ws.lastSeen) >= 4*s.cfg.LeaseTimeout {
			delete(s.workers, name)
			s.unregisterWorkerObsLocked(name)
			s.cfg.Log.Printf("worker %s departed (silent %s), dropped from tables", name, now.Sub(ws.lastSeen))
		}
	}
	for i := 0; i < len(s.order); {
		sw := s.sweeps[s.order[i]]
		if sw.state == SweepCancelled && now.Sub(sw.finished) >= 4*s.cfg.LeaseTimeout {
			s.removeSweepLocked(sw)
			continue
		}
		i++
	}
}

// Done is closed when the boot sweep reaches a terminal state. In
// service mode it is nil: a multi-tenant service never finishes.
func (s *Server) Done() <-chan struct{} {
	if s.boot == nil {
		return nil
	}
	return s.boot.done
}

// Points returns the boot sweep's expanded point list.
func (s *Server) Points() []dse.Point {
	if s.boot == nil {
		return nil
	}
	return s.boot.points
}

// Results returns the boot sweep's accepted results in point-ID order
// (all of them once Done is closed) — the input for front and
// hypervolume reports.
func (s *Server) Results() []dse.Result {
	if s.boot == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boot.acc.Completed()
}

// Close flushes and closes every sweep's checkpoint log.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, id := range s.order {
		if err := s.sweeps[id].closeCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drain is the graceful-shutdown path: stop granting leases, wait for
// every in-flight lease to flush results or expire, then flush and
// close all checkpoints. In-flight work that expires is simply not
// waited for further — its points are already durable or will be
// resumed by the next incarnation. Returns ctx.Err() if the context
// ends first (checkpoints are still flushed).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.wakeLocked()
	s.mu.Unlock()
	if !already {
		s.cfg.Log.Printf("draining: no new leases, waiting for in-flight leases to flush")
	}
	for {
		s.mu.Lock()
		now := s.cfg.Clock.Now()
		s.reclaimAndGCLocked(now)
		inflight := 0
		for _, sw := range s.sweeps {
			inflight += len(sw.table.active) // only active sweeps hold leases
		}
		wake, d := s.wake, s.untilEventLocked(now, s.cfg.LeaseTimeout)
		s.mu.Unlock()
		if inflight == 0 {
			return s.Close()
		}
		if !s.park(ctx, wake, d) {
			s.Close()
			return ctx.Err()
		}
	}
}

// park waits until wake closes, d passes on the Clock, or ctx ends (false).
func (s *Server) park(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	fire, stop := s.cfg.Clock.NewTimer(d)
	defer stop()
	select {
	case <-wake:
	case <-fire:
	case <-ctx.Done():
		return false
	}
	return true
}

// untilEventLocked caps d at the time to any sweep's next lease event (untilEvent).
func (s *Server) untilEventLocked(now time.Time, d time.Duration) time.Duration {
	for _, sw := range s.sweeps {
		d = sw.table.untilEvent(now, d)
	}
	return d
}

// WriteFinal streams the boot sweep's completed output — byte-identical
// to a fault-free single-worker run — to w. It fails if points are
// still missing or there is no boot sweep.
func (s *Server) WriteFinal(w io.Writer) error {
	if s.boot == nil {
		return fmt.Errorf("coord: no boot sweep (service mode); use GET /sweeps/{id}/result")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boot.writeFinal(w)
}

// Status returns a progress snapshot: aggregate counters, the
// per-sweep registry table and the per-worker table. Rates count only
// work accepted since this process started, so a resumed coordinator
// does not credit its checkpoints as instantaneous progress.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	s.reclaimAndGCLocked(now)
	st := Status{
		Workers:  len(s.workers),
		Draining: s.draining,
		Complete: len(s.order) > 0,
	}
	ratePts, rateBasePts := 0, 0
	var doneCost, baseCost, remCost float64
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.state == SweepActive {
			st.Complete = false
		}
		row := sw.status()
		st.Sweeps = append(st.Sweeps, row)
		st.Done += row.Done
		st.Total += row.Total
		st.Duplicates += row.Duplicates
		st.ActiveLeases += row.ActiveLeases
		st.PendingPoints += row.PendingPoints
		if sw.state == SweepCancelled {
			continue // a cancelled sweep neither contributes rate nor owes work
		}
		ratePts += row.Done
		rateBasePts += sw.baseDone
		baseCost += sw.baseCost
		rem := sw.remainingCost()
		remCost += rem
		doneCost += sw.totalCost - rem
	}
	if s.boot != nil {
		st.Spec, st.Seed = s.boot.header.Spec, s.boot.header.Seed
	}
	if elapsed := now.Sub(s.started).Seconds(); elapsed > 0 {
		st.PointsPerSec = float64(ratePts-rateBasePts) / elapsed
		if costRate := (doneCost - baseCost) / elapsed; costRate > 0 {
			st.ETASeconds = remCost / costRate
		}
	}
	for name, ws := range s.workers {
		st.WorkerInfo = append(st.WorkerInfo, WorkerStatus{
			Name:        name,
			Accepted:    ws.accepted,
			LastSeenAgo: now.Sub(ws.lastSeen).Seconds(),
			Affinity:    ws.affinity,
		})
	}
	sort.Slice(st.WorkerInfo, func(i, j int) bool { return st.WorkerInfo[i].Name < st.WorkerInfo[j].Name })
	return st
}

// Registry exposes the coordinator's metric registry; cmd/dsed mounts
// its Prometheus handler and callers may add their own series.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the coordinator's HTTP handler: the worker protocol
// plus the sweep registry API and /status.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", s.handleLease)
	mux.HandleFunc("POST /results", s.handleResults)
	mux.HandleFunc("POST /heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /sweeps", s.handleRegister)
	mux.HandleFunc("GET /sweeps", s.handleListSweeps)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /sweeps/{id}/front", s.handleFront)
	mux.HandleFunc("GET /sweeps/{id}/result", s.handleResult)
	return mux
}

// writeJSON responds with one JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, "coord: bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// retryAfterLocked renders the Retry-After value clients of a refused
// request should wait: one lease timeout, at least a second.
func (s *Server) retryAfterLocked() string {
	secs := int(s.cfg.LeaseTimeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// refuseDrainingLocked answers 503 + Retry-After and reports true when
// the coordinator is draining and so admits no sweeps.
func (s *Server) refuseDrainingLocked(w http.ResponseWriter) bool {
	if !s.draining {
		return false
	}
	w.Header().Set("Retry-After", s.retryAfterLocked())
	http.Error(w, "coord: draining, not admitting sweeps", http.StatusServiceUnavailable)
	return true
}

// handleRegister (POST /sweeps) admits a tenant sweep. Registration is
// idempotent on (spec, seed); admission control refuses new tenants
// with 429 when MaxSweeps are already active and 507 when the
// checkpoint directory is over its disk budget — bounded refusals
// instead of OOM/ENOSPC collapse.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	// A draining coordinator refuses before paying for the expansion;
	// the check repeats under the lock in case a drain began meanwhile.
	s.mu.Lock()
	refused := s.refuseDrainingLocked(w)
	s.mu.Unlock()
	if refused {
		return
	}
	points, header, err := dse.Expand(req.Spec, req.Seed)
	if err != nil {
		http.Error(w, "coord: bad sweep spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	id := SweepID(header)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseDrainingLocked(w) {
		return
	}
	// Only a new tenant is subject to admission control: re-registering
	// a live sweep is answered with its row whatever the load.
	if live := s.sweeps[id]; live == nil || live.state == SweepCancelled {
		active := 0
		var diskUsed int64
		for _, sid := range s.order {
			sw := s.sweeps[sid]
			if sw.state == SweepActive {
				active++
			}
			diskUsed += sw.ckptBytes
		}
		if active >= s.cfg.MaxSweeps {
			w.Header().Set("Retry-After", s.retryAfterLocked())
			http.Error(w, fmt.Sprintf("coord: %d sweeps already active (limit %d)", active, s.cfg.MaxSweeps), http.StatusTooManyRequests)
			return
		}
		if s.cfg.DiskBudgetBytes > 0 && diskUsed >= s.cfg.DiskBudgetBytes {
			w.Header().Set("Retry-After", s.retryAfterLocked())
			http.Error(w, fmt.Sprintf("coord: checkpoint storage over budget (%d of %d bytes)", diskUsed, s.cfg.DiskBudgetBytes), http.StatusInsufficientStorage)
			return
		}
	}
	sw, created, err := s.registerLocked(header, points, s.dirLogPath(id), true)
	if err != nil {
		http.Error(w, "coord: registering sweep: "+err.Error(), http.StatusInternalServerError)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(RegisterResponse{Sweep: sw.status(), Header: sw.header, Created: created})
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rows := make([]SweepStatus, 0, len(s.order))
	for _, id := range s.order {
		rows = append(rows, s.sweeps[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, rows)
}

// lookupSweep resolves a path {id}; nil means a 404 was written.
func (s *Server) lookupSweepLocked(w http.ResponseWriter, r *http.Request) *sweep {
	sw, ok := s.sweeps[r.PathValue("id")]
	if !ok {
		http.Error(w, "coord: unknown sweep "+r.PathValue("id"), http.StatusNotFound)
		return nil
	}
	return sw
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw := s.lookupSweepLocked(w, r)
	if sw == nil {
		s.mu.Unlock()
		return
	}
	row := sw.status()
	s.mu.Unlock()
	writeJSON(w, row)
}

// handleCancel (DELETE /sweeps/{id}) gracefully cancels a sweep:
// leases reclaimed, storage removed, late submissions absorbed by the
// tombstone — and no other tenant affected.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw := s.lookupSweepLocked(w, r)
	if sw == nil {
		s.mu.Unlock()
		return
	}
	s.cancelSweepLocked(sw)
	row := sw.status()
	s.mu.Unlock()
	writeJSON(w, row)
}

// handleFront (GET /sweeps/{id}/front) serves the incremental Pareto
// and hypervolume snapshot over the sweep's accepted results so far.
func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw := s.lookupSweepLocked(w, r)
	if sw == nil {
		s.mu.Unlock()
		return
	}
	snap := FrontSnapshot{
		Sweep:    sw.id,
		Done:     sw.acc.Done(),
		Total:    sw.acc.Total(),
		Complete: sw.acc.Complete(),
	}
	completed := sw.acc.Completed()
	s.mu.Unlock()
	// Front and hypervolume run on the copied slice outside the lock:
	// snapshot math never blocks the lease path.
	for _, i := range dse.GroupedFront(completed) {
		snap.Front = append(snap.Front, completed[i])
	}
	snap.Hypervolumes = dse.Hypervolumes(completed)
	writeJSON(w, snap)
}

// handleResult (GET /sweeps/{id}/result) streams a completed sweep's
// final JSONL — byte-identical to a fault-free standalone run.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw := s.lookupSweepLocked(w, r)
	if sw == nil {
		s.mu.Unlock()
		return
	}
	// Rendered into memory, the only failure is an incomplete sweep.
	var buf bytes.Buffer
	err := sw.writeFinal(&buf)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Write(buf.Bytes())
}

// handleLease grants the requesting worker its next assignment,
// picking the sweep by cost-weighted fairness with worker affinity
// (see sched.go). A request with nothing to grant parks, for at most
// the RetryMS it would answer, until a sweep is registered, completes
// or is cancelled, a drain starts, or a lease expires or turns
// stealable, and then decides once more: an idle worker learns at once
// that the boot sweep is over or that work is grantable.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, wake, d := s.decideLease(req.Worker)
	if wake != nil {
		if !s.park(r.Context(), wake, d) {
			return // the worker is gone: grant it nothing
		}
		resp, _, _ = s.decideLease(req.Worker)
	}
	writeJSON(w, resp)
}

// decideLease answers one /lease: Done, a grant, or a RetryMS hint.
// An idle answer (nothing to grant, not draining) also returns the
// wake channel current when it was decided, and how long to park.
func (s *Server) decideLease(worker string) (LeaseResponse, <-chan struct{}, time.Duration) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.touchWorkerLocked(worker, now)
	s.reclaimAndGCLocked(now)
	if s.boot != nil && s.boot.state != SweepActive {
		return LeaseResponse{Done: true}, nil, 0
	}
	if s.draining {
		return s.retryResponseLocked(), nil, 0
	}
	// The runnable set: active sweeps with grantable work right now.
	// An active sweep with nothing to hand out holds no claim on
	// service while idle, so its debt resets (the DRR empty-queue
	// rule) — debt measures being outscheduled, not being finished.
	var elig []*sweep
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.state != SweepActive {
			continue
		}
		if sw.table.hasWork(now) {
			elig = append(elig, sw)
		} else {
			sw.debt = 0
		}
	}
	if len(elig) == 0 {
		return s.idleLocked(now)
	}
	debts := make([]float64, len(elig))
	affinity, maxChunk := -1, 0.0
	for i, sw := range elig {
		debts[i] = sw.debt
		if sw.id == ws.affinity {
			affinity = i
		}
		if sw.table.chunkCost > maxChunk {
			maxChunk = sw.table.chunkCost
		}
	}
	sw := elig[pickFair(debts, affinity, 2*maxChunk)]
	l := sw.table.grant(worker, now)
	if l == nil {
		return s.idleLocked(now)
	}
	cost := 0.0
	for p := l.lo; p < l.hi; p++ {
		cost += sw.costs[p]
	}
	for i, e := range elig {
		if e == sw {
			chargeGrant(debts, i, cost)
			break
		}
	}
	for i, e := range elig {
		e.debt = debts[i]
	}
	ws.affinity = sw.id
	s.cfg.Log.Printf("lease %s/%d [%d,%d) -> %s (reissue %d)", sw.id, l.id, l.lo, l.hi, worker, l.issues)
	return LeaseResponse{
		Lease: &Lease{
			Sweep:      sw.id,
			ID:         l.id,
			Lo:         l.lo,
			Hi:         l.hi,
			DeadlineMS: s.cfg.LeaseTimeout.Milliseconds(),
		},
		Header: &sw.header,
	}, nil, 0
}

// retryResponseLocked is the "nothing to grant right now" answer.
func (s *Server) retryResponseLocked() LeaseResponse {
	return LeaseResponse{RetryMS: max(s.cfg.LeaseTimeout/8, 50*time.Millisecond).Milliseconds()}
}

// idleLocked answers RetryMS; the request parks on wake until then or the next lease event.
func (s *Server) idleLocked(now time.Time) (LeaseResponse, <-chan struct{}, time.Duration) {
	resp := s.retryResponseLocked()
	return resp, s.wake, s.untilEventLocked(now, time.Duration(resp.RetryMS)*time.Millisecond)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Sweep == "" {
		http.Error(w, "coord: heartbeat is missing the sweep parameter", http.StatusBadRequest)
		return
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	s.touchWorkerLocked(req.Worker, now)
	sw := s.sweeps[req.Sweep]
	resp := HeartbeatResponse{}
	if sw == nil || sw.state == SweepCancelled {
		resp.Cancelled = true
	} else {
		resp.Valid = sw.table.heartbeat(req.Lease, now)
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleResults accepts a JSONL batch of result lines for one sweep.
// Every line is decoded exactly once, before s.mu is taken, so the
// JSON cost of one worker's post never queues the other workers'
// posts or leases; under the lock the decoded results are only
// validated, merged and checkpointed. Acceptance is idempotent
// line-by-line and in order. A malformed line, or a conflicting one
// (bytes disagreeing with an accepted result for the same point),
// fails the request with 409 — that is never a retry artifact, it
// means an engine drifted — but the lines before it stay accepted and
// checkpointed. A batch for a cancelled or unknown sweep is discarded
// with a Cancelled ack so the worker abandons the lease. A batch that
// names no sweep is a 400: acking it Cancelled would make a worker
// drop every lease and ask again forever.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sweepID := q.Get("sweep")
	if sweepID == "" {
		http.Error(w, "coord: results are missing the sweep parameter", http.StatusBadRequest)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxResultsBody), r.ContentLength)
	if err != nil {
		http.Error(w, "coord: reading results: "+err.Error(), http.StatusBadRequest)
		return
	}
	decodeStart := time.Now()
	batch := decodeResults(body)
	s.obs.decodeUS.Observe(time.Since(decodeStart).Microseconds())
	s.logProgress(s.ingestResults(w, q.Get("worker"), sweepID, q.Get("lease"), batch))
}

// maxResultsBody caps a /results body; a larger one is a 400.
const maxResultsBody = 64 << 20

// readBody reads a /results body of the declared length (-1 when
// unknown, as for a chunked body) through the capped reader body. A
// known length sizes the buffer once instead of io.ReadAll's
// doubling; one past the cap fails unread, with the error the capped
// reader would return.
func readBody(body io.Reader, length int64) ([]byte, error) {
	switch {
	case length > maxResultsBody:
		return nil, &http.MaxBytesError{Limit: maxResultsBody}
	case length < 0:
		return io.ReadAll(body)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// resultBatch is a /results body decoded outside the coordinator
// lock: the non-blank lines up to the first malformed one, each with
// its decoded result, and that line's decode error (nil when every
// line decoded).
type resultBatch struct {
	lines   [][]byte
	results []dse.Result
	err     error
}

// decodeResults splits a /results body into lines and decodes each
// once, stopping at the first malformed line.
func decodeResults(body []byte) resultBatch {
	lines := bytes.Split(body, []byte("\n"))
	// Kept lines are compacted into Split's own array: the write index
	// never passes the read index.
	b := resultBatch{lines: lines[:0], results: make([]dse.Result, 0, len(lines))}
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := dse.DecodeResult(line)
		if err != nil {
			b.err = err
			break
		}
		b.lines = append(b.lines, line)
		b.results = append(b.results, r)
	}
	return b
}

// ingestResults applies a decoded batch under s.mu and answers the
// post. A batch that stops at a malformed or conflicting line still
// lands its prefix, flushed to the checkpoint and counted, before the
// 409. It returns the live-front snapshot, if one is due, for the
// caller to log once the lock is released.
func (s *Server) ingestResults(w http.ResponseWriter, worker, sweepID, lease string, b resultBatch) *progressSnapshot {
	s.mu.Lock()
	lockedAt := time.Now()
	defer func() {
		s.obs.lockedUS.Observe(time.Since(lockedAt).Microseconds())
		s.mu.Unlock()
	}()
	ws := s.touchWorkerLocked(worker, s.cfg.Clock.Now())
	sw := s.sweeps[sweepID]
	if sw == nil || sw.state == SweepCancelled {
		writeJSON(w, ResultAck{Cancelled: true})
		return nil
	}
	ack := ResultAck{}
	conflict := b.err
	for i, r := range b.results {
		added, err := sw.acc.AddResult(r, b.lines[i])
		if err != nil {
			conflict = err
			break
		}
		if !added {
			ack.Duplicates++
			continue
		}
		ack.Accepted++
		if err := sw.appendCheckpoint(r.Point.ID); err != nil {
			http.Error(w, "coord: checkpoint: "+err.Error(), http.StatusInternalServerError)
			return nil
		}
	}
	if err := sw.flushCheckpoint(); err != nil {
		http.Error(w, "coord: checkpoint: "+err.Error(), http.StatusInternalServerError)
		return nil
	}
	ws.accepted += int64(ack.Accepted)
	s.obs.accepted.Add(int64(ack.Accepted))
	s.obs.duplicates.Add(int64(ack.Duplicates))
	leases := len(sw.table.active)
	sw.table.closeCovered()
	if s.draining && len(sw.table.active) < leases { // Drain waits for this
		s.wakeLocked()
	}
	progress := s.progressDueLocked(sw)
	if sw.acc.Complete() {
		s.completeSweepLocked(sw)
	}
	if conflict != nil {
		s.obs.conflicts.Inc()
		s.cfg.Log.Printf("conflict from %s (sweep %s lease %s): %v", worker, sw.id, lease, conflict)
		http.Error(w, "coord: "+conflict.Error(), http.StatusConflict)
		return progress
	}
	ack.Done = s.boot != nil && s.boot.state != SweepActive
	writeJSON(w, ack)
	return progress
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Status())
}

// progressSnapshot is what one live-front log line is computed from,
// copied under s.mu so the front and hypervolume work, quadratic in
// the completed points, runs after the lock is released.
type progressSnapshot struct {
	sweep     string
	total     int
	completed []dse.Result
}

// progressDueLocked returns the sweep's snapshot every ProgressEvery
// accepted points, and nil in between. Caller holds s.mu.
func (s *Server) progressDueLocked(sw *sweep) *progressSnapshot {
	if s.cfg.ProgressEvery <= 0 || sw.acc.Done() < sw.frontAt+s.cfg.ProgressEvery {
		return nil
	}
	sw.frontAt = sw.acc.Done()
	return &progressSnapshot{sweep: sw.id, total: sw.acc.Total(), completed: sw.acc.Completed()}
}

// logProgress emits a sweep's live per-workload front snapshot (a nil
// snapshot logs nothing): merge is incremental, so the Pareto fronts
// and hypervolumes of the completed subset are available the whole
// time the sweep runs.
func (s *Server) logProgress(p *progressSnapshot) {
	if p == nil {
		return
	}
	front := dse.GroupedFront(p.completed)
	var hv bytes.Buffer
	for i, f := range dse.Hypervolumes(p.completed) {
		if i > 0 {
			hv.WriteString(" ")
		}
		fmt.Fprintf(&hv, "%s=%.3f", f.Workload, f.Norm)
	}
	s.cfg.Log.Printf("sweep %s live %d/%d points, front %d, hv-norm %s",
		p.sweep, len(p.completed), p.total, len(front), hv.String())
}
