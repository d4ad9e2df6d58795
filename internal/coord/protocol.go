// Package coord is the fault-tolerant multi-tenant sweep service: a
// long-running HTTP/JSONL coordinator (cmd/dsed) that holds a registry
// of concurrent sweeps, hands out contiguous point-ID leases to
// workers (cmd/dse -connect) under cost-weighted fair scheduling, and
// accumulates each sweep's streamed result lines into a file
// byte-identical to a fault-free single-worker run of that sweep.
//
// Robustness rests entirely on the determinism contract the dse
// package already enforces: every per-point seed derives from the
// sweep seed alone, result lines are byte-reproducible wherever they
// are evaluated, and each sweep's Accumulator validates every line
// against the locally re-expanded point list, dropping byte-identical
// duplicates and refusing conflicts. Given that, every failure mode
// reduces to "evaluate the range again somewhere": a worker that dies
// simply never acks, its lease deadline passes, and the uncovered
// range is reissued (shrunk, so a straggling range spreads across the
// fleet); a worker that was merely slow acks late and its lines land
// as duplicates; a duplicated or replayed network request is absorbed
// the same way. Tenancy layers lifecycle on top without touching that
// core: each sweep owns its own lease table, accumulator and
// append-only checkpoint log (all logs reloaded on coordinator
// restart, so a mid-crash farm resumes every active sweep), a
// cancelled sweep's leases are reclaimed without poisoning its
// neighbours, and admission control sheds load with 429/507 before
// memory or disk collapse.
//
// # Protocol
//
// Workers are the HTTP clients (the uPIMulator subprocess-RPC pattern
// inverted). All requests and responses are JSON except result
// submission, whose body is the raw JSONL result lines — the same
// bytes a standalone run would write, which is what makes merged
// output byte-identical.
//
//	POST   /sweeps             RegisterRequest -> RegisterResponse (tenant entry)
//	GET    /sweeps                             -> []SweepStatus
//	GET    /sweeps/{id}                        -> SweepStatus
//	DELETE /sweeps/{id}                        -> SweepStatus     (graceful cancel)
//	GET    /sweeps/{id}/front                  -> FrontSnapshot   (live Pareto/HV)
//	GET    /sweeps/{id}/result                 -> JSONL           (final bytes)
//	POST   /lease              LeaseRequest    -> LeaseResponse   (work assignment)
//	POST   /results            JSONL lines     -> ResultAck       (?worker=&sweep=&lease=, sweep required)
//	POST   /heartbeat          HeartbeatRequest -> HeartbeatResponse
//	GET    /status                             -> Status
package coord

import "mpsockit/internal/dse"

// Sweep lifecycle states, as reported in SweepStatus.State.
const (
	// SweepActive is a registered sweep with work outstanding.
	SweepActive = "active"
	// SweepDone is a completed sweep: every point has an accepted
	// result and the final file has been written.
	SweepDone = "done"
	// SweepCancelled is a tenant-cancelled sweep: its leases were
	// reclaimed and its checkpoint removed; late result submissions are
	// acked with Cancelled so workers abandon the work quietly.
	SweepCancelled = "cancelled"
)

// SweepID derives a sweep's registry identity from its provenance
// header: "sw-" plus the expanded point-list hash. The ID is a pure
// function of spec and seed, which makes registration idempotent (a
// retried POST /sweeps lands on the same sweep), lets a worker map a
// locally checkpointed lease file back to its sweep after a
// coordinator restart, and names the sweep's on-disk checkpoint log.
func SweepID(h dse.Header) string { return "sw-" + h.SpecHash }

// RegisterRequest asks the coordinator to adopt a sweep.
type RegisterRequest struct {
	// Spec is the sweep specification (preset or dimension list).
	Spec string `json:"spec"`
	// Seed is the sweep seed; the determinism contract hangs off it.
	Seed uint64 `json:"seed"`
}

// RegisterResponse acknowledges a registration. Registration is
// idempotent on (spec, seed): re-registering an existing sweep returns
// its current status with Created false.
type RegisterResponse struct {
	// Sweep is the registered sweep's status snapshot.
	Sweep SweepStatus `json:"sweep"`
	// Header is the sweep's provenance record (the final file's first
	// line); clients verify their engine against Header.SpecHash.
	Header dse.Header `json:"header"`
	// Created is false when the sweep was already registered.
	Created bool `json:"created"`
}

// LeaseRequest asks for a work assignment from any registered sweep.
type LeaseRequest struct {
	// Worker is the requesting worker's identity.
	Worker string `json:"worker"`
}

// Lease is one work assignment: a contiguous point-ID range of one
// sweep plus the deadline discipline. Leases are not exclusive grants
// in the correctness sense — the determinism contract makes double
// evaluation harmless — they are a scheduling tool bounding how long a
// range can sit on a dead or straggling worker.
type Lease struct {
	// Sweep is the registry ID of the sweep the range belongs to.
	Sweep string `json:"sweep"`
	// ID identifies the lease for heartbeats and acks (unique within
	// its sweep).
	ID int64 `json:"id"`
	// Lo is the first point ID of the range (inclusive).
	Lo int `json:"lo"`
	// Hi is one past the last point ID (exclusive).
	Hi int `json:"hi"`
	// DeadlineMS is the lease duration in milliseconds: the worker
	// must heartbeat within it (a result post does not count), or the
	// range is reclaimed and reissued. Workers heartbeat every
	// DeadlineMS/4.
	DeadlineMS int64 `json:"deadline_ms"`
}

// Len returns the number of points the lease covers.
func (l Lease) Len() int { return l.Hi - l.Lo }

// LeaseResponse carries a lease, a farm-complete signal, or a back-off
// hint when no work can be granted right now (all remaining ranges
// leased out, no sweeps registered, or the coordinator is draining).
// Except while draining, the coordinator holds an idle request for up
// to RetryMS first and answers early when a sweep is registered,
// completes or is cancelled, or a lease expires or turns stealable.
type LeaseResponse struct {
	// Lease is the granted assignment; nil when Done or RetryMS is
	// set instead.
	Lease *Lease `json:"lease,omitempty"`
	// Header is the leased sweep's provenance record. A worker seeing
	// the sweep for the first time re-expands the spec locally and
	// verifies its point-list hash against Header.SpecHash — an
	// engine-drifted worker refuses the sweep instead of poisoning it
	// with conflicting bytes.
	Header *dse.Header `json:"header,omitempty"`
	// Done reports that the coordinator is a single-shot (boot-mode)
	// run whose boot sweep is terminal (done or cancelled); the worker
	// should exit. Other registered sweeps do not hold it back. A
	// service-mode coordinator never sets it — workers poll.
	Done bool `json:"done,omitempty"`
	// RetryMS asks the worker to poll again after this many
	// milliseconds.
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// ResultAck acknowledges a batch of submitted result lines.
type ResultAck struct {
	// Accepted counts lines that were new.
	Accepted int `json:"accepted"`
	// Duplicates counts byte-identical lines the coordinator already
	// had — the normal aftermath of a reissued lease or a replayed
	// request, not an error.
	Duplicates int `json:"duplicates"`
	// Done reports that a single-shot coordinator's boot sweep is
	// terminal (see LeaseResponse.Done).
	Done bool `json:"done,omitempty"`
	// Cancelled reports that the submission's sweep was cancelled (or
	// never registered): the lines were discarded and the worker
	// should abandon the lease without retrying.
	Cancelled bool `json:"cancelled,omitempty"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	// Worker is the heartbeating worker's identity.
	Worker string `json:"worker"`
	// Sweep is the registry ID of the lease's sweep; required (a
	// heartbeat without it is a 400).
	Sweep string `json:"sweep"`
	// Lease is the lease being kept alive.
	Lease int64 `json:"lease"`
}

// HeartbeatResponse reports whether the lease was still live. An
// invalid lease is not fatal for the worker: its range was reclaimed
// (and possibly reissued), but finishing and submitting anyway is
// safe — the lines land as duplicates or fill still-missing points.
type HeartbeatResponse struct {
	// Valid is false when the lease had already expired or closed.
	Valid bool `json:"valid"`
	// Cancelled is true when the lease's sweep was cancelled; the
	// worker should stop evaluating the lease immediately rather than
	// finish work nobody wants.
	Cancelled bool `json:"cancelled,omitempty"`
}

// SweepStatus is one sweep's row in the registry.
type SweepStatus struct {
	// ID is the sweep's registry identity (SweepID of its header).
	ID string `json:"id"`
	// Spec and Seed identify the sweep.
	Spec string `json:"spec"`
	// Seed is the sweep seed.
	Seed uint64 `json:"seed"`
	// SpecHash fingerprints the expanded point list.
	SpecHash string `json:"spec_hash"`
	// State is the lifecycle state: active, done or cancelled.
	State string `json:"state"`
	// Done counts points with an accepted result.
	Done int `json:"done"`
	// Total is the sweep's point count.
	Total int `json:"total"`
	// Duplicates counts byte-identical duplicate lines absorbed.
	Duplicates int `json:"duplicates"`
	// ActiveLeases counts currently outstanding leases of this sweep.
	ActiveLeases int `json:"active_leases"`
	// PendingPoints counts points neither done nor covered by an
	// active lease.
	PendingPoints int `json:"pending_points"`
	// Debt is the sweep's fair-scheduling deficit in EstCost units:
	// how much service the sweep is owed relative to an equal
	// cost-share of all grants while it was runnable. Positive means
	// under-served (the scheduler will favour it), negative means it
	// ran ahead of its share.
	Debt float64 `json:"debt"`
	// CheckpointBytes is the on-disk size of the sweep's checkpoint
	// log (or final file), counted against the coordinator's disk
	// budget.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// FrontSnapshot is the live Pareto/hypervolume view of one sweep's
// accepted results so far (GET /sweeps/{id}/front). Fronts only
// tighten as results arrive, so the snapshot is meaningful the whole
// time the sweep runs.
type FrontSnapshot struct {
	// Sweep is the sweep's registry ID.
	Sweep string `json:"sweep"`
	// Done and Total report progress at snapshot time.
	Done int `json:"done"`
	// Total is the sweep's point count.
	Total int `json:"total"`
	// Complete mirrors Done == Total.
	Complete bool `json:"complete"`
	// Front holds the non-dominated completed results (the union of
	// per-workload Pareto fronts).
	Front []dse.Result `json:"front"`
	// Hypervolumes carries the per-workload front hypervolume
	// indicators over the completed subset.
	Hypervolumes []dse.FrontHV `json:"hypervolumes"`
}

// Status is the coordinator's observable progress snapshot. The
// top-level counters aggregate over every registered sweep; Sweeps
// carries the per-tenant rows.
type Status struct {
	// Spec and Seed identify the boot sweep on a single-shot
	// coordinator; empty on a multi-tenant service.
	Spec string `json:"spec,omitempty"`
	// Seed is the boot sweep's seed.
	Seed uint64 `json:"seed,omitempty"`
	// Done counts points with an accepted result across all sweeps.
	Done int `json:"done"`
	// Total is the point count across all sweeps.
	Total int `json:"total"`
	// Duplicates counts byte-identical duplicate lines absorbed so
	// far (retries, reissues, replays).
	Duplicates int `json:"duplicates"`
	// ActiveLeases counts currently outstanding leases.
	ActiveLeases int `json:"active_leases"`
	// PendingPoints counts points neither done nor covered by an
	// active lease.
	PendingPoints int `json:"pending_points"`
	// Workers counts distinct worker identities currently tracked
	// (departed workers are garbage-collected).
	Workers int `json:"workers"`
	// Complete reports that at least one sweep is registered and every
	// registered sweep has reached a terminal state.
	Complete bool `json:"complete"`
	// Draining reports that the coordinator has stopped granting
	// leases and is waiting for in-flight ones to flush.
	Draining bool `json:"draining,omitempty"`
	// PointsPerSec is the acceptance rate since this coordinator
	// process started (resumed checkpoint points excluded).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	// ETASeconds estimates the remaining wall-clock time, weighting
	// points by estimated evaluation cost rather than counting them
	// equally; zero until enough work has been accepted to form a rate.
	ETASeconds float64 `json:"eta_s,omitempty"`
	// Sweeps is the per-sweep table, in registration order.
	Sweeps []SweepStatus `json:"sweeps,omitempty"`
	// WorkerInfo is the per-worker table, sorted by name.
	WorkerInfo []WorkerStatus `json:"worker_info,omitempty"`
}

// WorkerStatus is one worker's row in the Status table.
type WorkerStatus struct {
	// Name is the worker's self-chosen identity.
	Name string `json:"name"`
	// Accepted counts this worker's result lines accepted as new.
	Accepted int64 `json:"accepted"`
	// LastSeenAgo is seconds since the worker was last heard from
	// (lease, heartbeat or results).
	LastSeenAgo float64 `json:"last_seen_ago_s"`
	// Affinity is the sweep the worker was last granted work from;
	// the scheduler keeps the worker there (warm caches) until another
	// sweep's fairness debt exceeds the rebalance threshold.
	Affinity string `json:"affinity,omitempty"`
}
