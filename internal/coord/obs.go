package coord

import (
	"time"

	"mpsockit/internal/obs"
)

// coordObs bundles the coordinator's result-path counters. Fields are
// nil-safe obs instruments, so the zero value (no registry) is inert.
type coordObs struct {
	accepted   *obs.Counter
	duplicates *obs.Counter
	conflicts  *obs.Counter
	// decodeUS and lockedUS split a /results post's server time: JSON
	// decode outside s.mu, and the time s.mu is held to apply it.
	decodeUS *obs.Histogram
	lockedUS *obs.Histogram
}

// leaseObs bundles the lease-table counters; every sweep's table
// shares one instance so the totals stay farm-global, and the zero
// value is inert.
type leaseObs struct {
	grants   *obs.Counter
	reissues *obs.Counter
	steals   *obs.Counter
	reclaims *obs.Counter
}

// workerState is the coordinator's per-worker record: when the worker
// was last heard from (hello, lease, heartbeat or results), how many
// result lines of its submissions were accepted as new, and which
// sweep it was last granted work from (the scheduler's affinity).
type workerState struct {
	lastSeen time.Time
	accepted int64
	affinity string
}

// initObs registers the coordinator's farm-level metric families.
// Func-valued gauges read server state under s.mu — safe because the
// registry never renders while a coordinator handler holds the lock
// (exposition snapshots the series list, then evaluates functions
// unlocked). Per-sweep and per-worker series register on first sight
// and unregister when the entity is garbage-collected, so a long-lived
// multi-tenant daemon's label sets stay bounded.
func (s *Server) initObs() {
	r := s.reg
	s.obs = coordObs{
		accepted:   r.Counter("coord_results_accepted_total", "Result lines accepted as new."),
		duplicates: r.Counter("coord_result_duplicates_total", "Byte-identical duplicate result lines absorbed."),
		conflicts:  r.Counter("coord_result_conflicts_total", "Result batches rejected with 409 (a malformed line, or conflicting bytes for an accepted point)."),
		decodeUS:   r.Histogram("coord_results_decode_us", "Per-post /results line decode time in microseconds, outside the coordinator lock."),
		lockedUS:   r.Histogram("coord_results_locked_us", "Per-post time /results holds the coordinator lock, in microseconds."),
	}
	s.leaseObs = leaseObs{
		grants:   r.Counter("coord_lease_grants_total", "Leases granted (fresh, reissued and stolen)."),
		reissues: r.Counter("coord_lease_reissues_total", "Lease grants covering previously-leased ranges."),
		steals:   r.Counter("coord_lease_steals_total", "Leases granted by stealing a straggler's unfinished tail."),
		reclaims: r.Counter("coord_lease_reclaims_total", "Expired or cancelled leases reclaimed."),
	}
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc("coord_points_done", "Points with an accepted result, all sweeps.",
		locked(func() float64 {
			n := 0
			for _, sw := range s.sweeps {
				n += sw.acc.Done()
			}
			return float64(n)
		}))
	r.GaugeFunc("coord_points_total", "Points across all registered sweeps.",
		locked(func() float64 {
			n := 0
			for _, sw := range s.sweeps {
				n += sw.acc.Total()
			}
			return float64(n)
		}))
	r.GaugeFunc("coord_active_leases", "Currently outstanding leases, all sweeps.",
		locked(func() float64 {
			n := 0
			for _, sw := range s.sweeps {
				n += len(sw.table.active)
			}
			return float64(n)
		}))
	r.GaugeFunc("coord_pending_points", "Points neither done nor covered by an active lease.",
		locked(func() float64 {
			n := 0
			for _, sw := range s.sweeps {
				if sw.state == SweepActive {
					n += sw.table.pendingPoints()
				}
			}
			return float64(n)
		}))
	r.GaugeFunc("coord_workers", "Distinct worker identities currently tracked.",
		locked(func() float64 { return float64(len(s.workers)) }))
	r.GaugeFunc("coord_sweeps_active", "Registered sweeps still running.",
		locked(func() float64 {
			n := 0
			for _, sw := range s.sweeps {
				if sw.state == SweepActive {
					n++
				}
			}
			return float64(n)
		}))
	r.GaugeFunc("coord_checkpoint_bytes", "Total on-disk checkpoint bytes, all sweeps.",
		locked(func() float64 {
			var n int64
			for _, sw := range s.sweeps {
				n += sw.ckptBytes
			}
			return float64(n)
		}))
}

// sweepSeries are the per-sweep metric families, registered and
// unregistered as a block.
var sweepSeries = []string{
	"coord_sweep_points_done",
	"coord_sweep_points_total",
	"coord_sweep_active_leases",
	"coord_sweep_debt",
	"coord_sweep_checkpoint_bytes",
}

// registerSweepObsLocked adds the sweep's labeled series. Caller holds
// s.mu; the closures re-lock at exposition time and read through the
// captured record, which stays valid even after removal (the series is
// unregistered in the same critical section that drops the record, so
// an unregistered closure is never rendered again).
func (s *Server) registerSweepObsLocked(sw *sweep) {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	s.reg.GaugeFunc("coord_sweep_points_done", "Points of this sweep with an accepted result.",
		locked(func() float64 { return float64(sw.acc.Done()) }), "sweep", sw.id)
	s.reg.GaugeFunc("coord_sweep_points_total", "Points in this sweep.",
		func() float64 { return float64(len(sw.points)) }, "sweep", sw.id)
	s.reg.GaugeFunc("coord_sweep_active_leases", "Outstanding leases of this sweep.",
		locked(func() float64 { return float64(len(sw.table.active)) }), "sweep", sw.id)
	s.reg.GaugeFunc("coord_sweep_debt", "Fair-scheduling deficit of this sweep (EstCost units).",
		locked(func() float64 { return sw.debt }), "sweep", sw.id)
	s.reg.GaugeFunc("coord_sweep_checkpoint_bytes", "On-disk checkpoint bytes of this sweep.",
		locked(func() float64 { return float64(sw.ckptBytes) }), "sweep", sw.id)
}

// unregisterSweepObsLocked drops a removed sweep's labeled series.
func (s *Server) unregisterSweepObsLocked(id string) {
	for _, name := range sweepSeries {
		s.reg.Unregister(name, "sweep", id)
	}
}

// unregisterWorkerObsLocked drops a departed worker's labeled series.
func (s *Server) unregisterWorkerObsLocked(name string) {
	s.reg.Unregister("coord_worker_heartbeat_age_seconds", "worker", name)
	s.reg.Unregister("coord_worker_accepted_total", "worker", name)
}

// touchWorkerLocked records that the worker was heard from now,
// registering its per-worker metric series on first sight. Caller
// holds s.mu.
func (s *Server) touchWorkerLocked(worker string, now time.Time) *workerState {
	if worker == "" {
		worker = "(anonymous)"
	}
	ws, ok := s.workers[worker]
	if !ok {
		ws = &workerState{}
		s.workers[worker] = ws
		s.reg.GaugeFunc("coord_worker_heartbeat_age_seconds",
			"Seconds since the worker was last heard from.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.cfg.Now().Sub(ws.lastSeen).Seconds()
			}, "worker", worker)
		s.reg.CounterFunc("coord_worker_accepted_total",
			"Result lines from this worker accepted as new.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(ws.accepted)
			}, "worker", worker)
	}
	ws.lastSeen = now
	return ws
}
