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
	// Spec, when non-empty, boots the coordinator with one sweep
	// already registered and puts it in single-shot mode: Done() closes
	// (and workers are told to exit) once every registered sweep is
	// terminal. Empty Spec is the multi-tenant service mode — sweeps
	// arrive via POST /sweeps and the coordinator serves until stopped.
	Spec string
	// Seed is the boot sweep's seed; the whole determinism contract
	// hangs off it.
	Seed uint64
	// LeaseTimeout bounds how long a lease can go without results or
	// a heartbeat before its range is reclaimed. Default 30s.
	LeaseTimeout time.Duration
	// Chunks is the target number of fresh leases each sweep is cut
	// into (grant size = sweep estimated cost / Chunks; reissues
	// shrink from there). Default 32.
	Chunks int
	// CheckpointPath, when non-empty, is the boot sweep's append-only
	// JSONL log of accepted result lines: header first, then lines in
	// acceptance order. A coordinator restarted with Resume re-accepts
	// it and continues; only unacked work is lost to a crash.
	CheckpointPath string
	// Resume loads CheckpointPath instead of starting fresh.
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
	// AffinityDebt is the fairness price of worker affinity: a worker
	// keeps draining its cached sweep as long as no other sweep's
	// scheduling debt exceeds that sweep's by more than this many
	// EstCost units. <= 0 means auto (twice the largest fresh-lease
	// cost among runnable sweeps).
	AffinityDebt float64
	// WorkerExpiry is how long a silent worker stays in the /status
	// table and metric label set before being garbage-collected, and
	// how long a cancelled sweep's tombstone absorbs late submissions.
	// Default 4 x LeaseTimeout.
	WorkerExpiry time.Duration
	// Now supplies the clock; nil means time.Now. Tests inject a fake
	// clock to drive lease expiry deterministically.
	Now func() time.Time
	// Log receives progress lines; nil discards them.
	Log *log.Logger
	// ProgressEvery, when > 0, logs a live per-workload Pareto-front
	// and hypervolume snapshot each time that many further points of a
	// sweep complete.
	ProgressEvery int
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
	// bootID is the Config.Spec sweep's registry ID ("" in service
	// mode); it selects single-shot semantics.
	bootID    string
	done      chan struct{}
	closeOnce sync.Once

	// reg and obs are the coordinator's telemetry; leaseObs is shared
	// by every sweep's table so the lease counters stay farm-global.
	reg      *obs.Registry
	obs      coordObs
	leaseObs leaseObs
	started  time.Time
}

// New builds a coordinator: it rescans CheckpointDir and resumes every
// sweep log found there, then registers the boot sweep (if any),
// optionally resuming its checkpoint.
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
	if cfg.WorkerExpiry <= 0 {
		cfg.WorkerExpiry = 4 * cfg.LeaseTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:     cfg,
		sweeps:  make(map[string]*sweep),
		workers: make(map[string]*workerState),
		done:    make(chan struct{}),
		reg:     obs.NewRegistry(),
	}
	s.started = cfg.Now()
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
		id := SweepID(header)
		s.bootID = id
		if _, ok := s.sweeps[id]; !ok {
			ckptPath := cfg.CheckpointPath
			managed := false
			if ckptPath == "" && cfg.CheckpointDir != "" {
				ckptPath = filepath.Join(cfg.CheckpointDir, id+".jsonl")
				managed = true
			}
			var prior *dse.Log
			if cfg.Resume {
				if prior, err = readSweepLog(ckptPath, header); err != nil {
					return nil, err
				}
			}
			if _, err := s.adoptSweepLocked(header, points, ckptPath, managed, prior); err != nil {
				return nil, err
			}
		}
	}
	s.maybeFinishLocked()
	return s, nil
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
		sw, err := s.adoptSweepLocked(header, points, path, true, lg)
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
// single-threaded constructor) and has already checked admission, that
// the ID is free and that prior's header is this sweep's.
func (s *Server) adoptSweepLocked(header dse.Header, points []dse.Point, ckptPath string, managed bool, prior *dse.Log) (*sweep, error) {
	sw := newSweep(header, points, s.cfg.Now())
	sw.ckptPath = ckptPath
	sw.managed = managed
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
	if sw.acc.Complete() {
		s.completeSweepLocked(sw)
	}
	return sw, nil
}

// completeSweepLocked retires a sweep whose every point has an
// accepted result: the append log is atomically replaced with the
// canonical point-ordered final bytes (for managed sweeps) and the
// sweep's Done channel closes.
func (s *Server) completeSweepLocked(sw *sweep) {
	if sw.state != SweepActive {
		return
	}
	sw.state = SweepDone
	sw.finished = s.cfg.Now()
	sw.debt = 0
	if err := sw.closeCheckpoint(); err != nil {
		s.cfg.Log.Printf("sweep %s: closing checkpoint: %v", sw.id, err)
	}
	if err := sw.finalizeFile(); err != nil {
		s.cfg.Log.Printf("sweep %s: finalizing %s: %v", sw.id, sw.ckptPath, err)
	}
	close(sw.done)
	s.cfg.Log.Printf("sweep %s complete: %d points (%d duplicate lines absorbed)",
		sw.id, sw.acc.Total(), sw.acc.Duplicates())
	s.maybeFinishLocked()
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
	sw.finished = s.cfg.Now()
	sw.debt = 0
	if err := sw.closeCheckpoint(); err != nil {
		s.cfg.Log.Printf("sweep %s: closing checkpoint: %v", sw.id, err)
	}
	if sw.managed {
		sw.removeFile()
	} else {
		sw.ckptBytes = 0
	}
	if wasActive {
		close(sw.done)
	}
	s.cfg.Log.Printf("sweep %s cancelled: reclaimed %d lease(s)", sw.id, n)
	s.maybeFinishLocked()
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

// maybeFinishLocked closes the coordinator's Done channel when a
// single-shot (boot-sweep) run has no active sweeps left. A
// multi-tenant service never finishes — it serves until stopped.
func (s *Server) maybeFinishLocked() {
	if s.bootID == "" || !s.allTerminalLocked() {
		return
	}
	s.closeOnce.Do(func() { close(s.done) })
}

// allTerminalLocked reports whether at least one sweep is registered
// and none is still active.
func (s *Server) allTerminalLocked() bool {
	if len(s.order) == 0 {
		return false
	}
	for _, id := range s.order {
		if s.sweeps[id].state == SweepActive {
			return false
		}
	}
	return true
}

// reclaimAndGCLocked expires overdue leases on every active sweep,
// retires leases whose ranges completed, garbage-collects workers not
// heard from within WorkerExpiry (dropping their metric series so a
// long-lived daemon's label set stays bounded), and expires cancelled
// sweeps' tombstones.
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
		if now.Sub(ws.lastSeen) >= s.cfg.WorkerExpiry {
			delete(s.workers, name)
			s.unregisterWorkerObsLocked(name)
			s.cfg.Log.Printf("worker %s departed (silent %s), dropped from tables", name, now.Sub(ws.lastSeen))
		}
	}
	for i := 0; i < len(s.order); {
		sw := s.sweeps[s.order[i]]
		if sw.state == SweepCancelled && now.Sub(sw.finished) >= s.cfg.WorkerExpiry {
			s.removeSweepLocked(sw)
			continue
		}
		i++
	}
}

// Done is closed when a single-shot coordinator's sweeps are all
// terminal; a multi-tenant service leaves it open forever.
func (s *Server) Done() <-chan struct{} { return s.done }

// bootLocked returns the boot sweep record, nil in service mode.
func (s *Server) bootLocked() *sweep {
	if s.bootID == "" {
		return nil
	}
	return s.sweeps[s.bootID]
}

// Header returns the boot sweep's provenance header (zero in service
// mode).
func (s *Server) Header() dse.Header {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw := s.bootLocked(); sw != nil {
		return sw.header
	}
	return dse.Header{}
}

// Points returns the boot sweep's expanded point list.
func (s *Server) Points() []dse.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw := s.bootLocked(); sw != nil {
		return sw.points
	}
	return nil
}

// Results returns the boot sweep's accepted results in point-ID order
// (all of them once Done is closed) — the input for front and
// hypervolume reports.
func (s *Server) Results() []dse.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw := s.bootLocked(); sw != nil {
		return sw.acc.Completed()
	}
	return nil
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
	s.mu.Unlock()
	if !already {
		s.cfg.Log.Printf("draining: no new leases, waiting for in-flight leases to flush")
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		now := s.cfg.Now()
		inflight := 0
		for _, id := range s.order {
			sw := s.sweeps[id]
			if sw.state != SweepActive {
				continue
			}
			sw.table.reclaim(now)
			sw.table.closeCovered()
			inflight += len(sw.table.active)
		}
		s.mu.Unlock()
		if inflight == 0 {
			return s.Close()
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// WriteFinal streams the boot sweep's completed output — byte-identical
// to a fault-free single-worker run — to w. It fails if points are
// still missing or there is no boot sweep.
func (s *Server) WriteFinal(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.bootLocked()
	if sw == nil {
		return fmt.Errorf("coord: no boot sweep (service mode); use GET /sweeps/{id}/result")
	}
	if !sw.acc.Complete() {
		missing, first := sw.acc.Missing()
		return fmt.Errorf("coord: sweep incomplete: %d of %d points missing (first ID %d)", missing, len(sw.points), first)
	}
	_, err := sw.acc.WriteTo(w, sw.header)
	return err
}

// Status returns a progress snapshot: aggregate counters, the
// per-sweep registry table and the per-worker table. Rates count only
// work accepted since this process started, so a resumed coordinator
// does not credit its checkpoints as instantaneous progress.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	s.reclaimAndGCLocked(now)
	st := Status{
		Workers:  len(s.workers),
		Draining: s.draining,
		Complete: s.allTerminalLocked(),
	}
	ratePts, rateBasePts := 0, 0
	var doneCost, baseCost, remCost float64
	for _, id := range s.order {
		sw := s.sweeps[id]
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
		for i := range sw.points {
			if sw.acc.Has(i) {
				doneCost += sw.costs[i]
			} else {
				remCost += sw.costs[i]
			}
		}
	}
	if sw := s.bootLocked(); sw != nil {
		st.Spec, st.Seed = sw.header.Spec, sw.header.Seed
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
	mux.HandleFunc("POST /hello", s.handleHello)
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
	if existing, ok := s.sweeps[id]; ok && existing.state != SweepCancelled {
		writeJSON(w, RegisterResponse{Sweep: existing.status(), Header: existing.header})
		return
	}
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
	if tomb, ok := s.sweeps[id]; ok {
		s.removeSweepLocked(tomb) // cancelled tombstone: re-registration revives fresh
	}
	ckptPath := ""
	if s.cfg.CheckpointDir != "" {
		ckptPath = filepath.Join(s.cfg.CheckpointDir, id+".jsonl")
	}
	var sw *sweep
	prior, err := readSweepLog(ckptPath, header)
	if err == nil {
		sw, err = s.adoptSweepLocked(header, points, ckptPath, ckptPath != "", prior)
	}
	if err != nil {
		http.Error(w, "coord: registering sweep: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.cfg.Log.Printf("registered sweep %s: spec %q seed %d (%d points)", sw.id, req.Spec, req.Seed, len(points))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(RegisterResponse{Sweep: sw.status(), Header: sw.header, Created: true})
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
	if !sw.acc.Complete() {
		missing, first := sw.acc.Missing()
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("coord: sweep incomplete: %d points missing (first ID %d)", missing, first), http.StatusConflict)
		return
	}
	var buf bytes.Buffer
	_, err := sw.acc.WriteTo(&buf, sw.header)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, "coord: rendering result: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Write(buf.Bytes())
}

func (s *Server) handleHello(w http.ResponseWriter, r *http.Request) {
	var req HelloRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	s.touchWorkerLocked(req.Worker, s.cfg.Now())
	resp := HelloResponse{HeartbeatMS: (s.cfg.LeaseTimeout / 4).Milliseconds()}
	for _, id := range s.order {
		resp.Sweeps = append(resp.Sweeps, s.sweeps[id].status())
	}
	s.mu.Unlock()
	s.cfg.Log.Printf("hello from %s", req.Worker)
	writeJSON(w, resp)
}

// handleLease grants the requesting worker its next assignment,
// picking the sweep by cost-weighted fairness with worker affinity
// (see sched.go).
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.touchWorkerLocked(req.Worker, now)
	s.reclaimAndGCLocked(now)
	if s.bootID != "" && s.allTerminalLocked() {
		writeJSON(w, LeaseResponse{Done: true})
		return
	}
	if s.draining {
		writeJSON(w, s.retryResponseLocked())
		return
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
		writeJSON(w, s.retryResponseLocked())
		return
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
	threshold := s.cfg.AffinityDebt
	if threshold <= 0 {
		threshold = 2 * maxChunk
	}
	sw := elig[pickFair(debts, affinity, threshold)]
	l := sw.table.grant(req.Worker, now)
	if l == nil {
		writeJSON(w, s.retryResponseLocked())
		return
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
	s.cfg.Log.Printf("lease %s/%d [%d,%d) -> %s (reissue %d)", sw.id, l.id, l.lo, l.hi, req.Worker, l.issues)
	writeJSON(w, LeaseResponse{
		Lease: &Lease{
			Sweep:      sw.id,
			ID:         l.id,
			Lo:         l.lo,
			Hi:         l.hi,
			DeadlineMS: s.cfg.LeaseTimeout.Milliseconds(),
		},
		Header: &sw.header,
	})
}

// retryResponseLocked is the "nothing to grant right now" answer.
func (s *Server) retryResponseLocked() LeaseResponse {
	retry := s.cfg.LeaseTimeout / 8
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return LeaseResponse{RetryMS: retry.Milliseconds()}
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
	now := s.cfg.Now()
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, "coord: reading results: "+err.Error(), http.StatusBadRequest)
		return
	}
	decodeStart := time.Now()
	batch := decodeResults(body)
	s.obs.decodeUS.Observe(time.Since(decodeStart).Microseconds())
	s.logProgress(s.ingestResults(w, q.Get("worker"), sweepID, q.Get("lease"), batch))
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
	ws := s.touchWorkerLocked(worker, s.cfg.Now())
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
	sw.table.closeCovered()
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
	ack.Done = s.bootID != "" && s.allTerminalLocked()
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
