package coord

import (
	"sort"
	"time"
)

// span is a contiguous range of point IDs awaiting (re)assignment.
// issues counts how many times the range has been leased out before:
// each reissue halves the grant size, so a range that keeps landing
// on dead or straggling workers is progressively split across the
// fleet instead of bouncing whole between victims.
type span struct {
	lo, hi, issues int
}

// lease is the server-side state of one outstanding assignment.
type lease struct {
	id       int64
	lo, hi   int
	issues   int
	worker   string
	granted  time.Time
	deadline time.Time
	// stolen marks that the tail of this lease was already duplicated
	// to another worker; a victim is robbed at most once.
	stolen bool
}

// leaseTable owns work assignment: the pending spans nobody holds,
// the active leases with deadlines, and the grant/reclaim/steal
// logic. It is not self-locking — the Server serializes access under
// its own mutex. Point completion is read through has (the
// accumulator), so the table never double-tracks what is done.
type leaseTable struct {
	nextID  int64
	pending []span
	active  map[int64]*lease
	// chunkCost is the target EstCost of a fresh (issues == 0) lease.
	chunkCost float64
	timeout   time.Duration
	costs     []float64
	has       func(id int) bool
	// obs counts grants, reissues, steals and reclaims; the zero value
	// is inert.
	obs leaseObs
}

// newLeaseTable builds a table over the per-point costs with the
// given fresh-lease cost target and lease timeout.
func newLeaseTable(costs []float64, chunkCost float64, timeout time.Duration, has func(int) bool) *leaseTable {
	return &leaseTable{
		active:    make(map[int64]*lease),
		chunkCost: chunkCost,
		timeout:   timeout,
		costs:     costs,
		has:       has,
	}
}

// addPending queues a span for (re)assignment, keeping the pending
// list sorted by range start so grants walk the sweep in ID order.
func (t *leaseTable) addPending(s span) {
	if s.lo >= s.hi {
		return
	}
	t.pending = append(t.pending, s)
	sort.Slice(t.pending, func(i, j int) bool { return t.pending[i].lo < t.pending[j].lo })
}

// uncovered appends the sub-spans of [lo, hi) whose points lack an
// accepted result, tagged with the given reissue count.
func (t *leaseTable) uncovered(lo, hi, issues int) {
	start := -1
	for id := lo; id <= hi; id++ {
		missing := id < hi && !t.has(id)
		if missing && start < 0 {
			start = id
		}
		if !missing && start >= 0 {
			t.addPending(span{lo: start, hi: id, issues: issues})
			start = -1
		}
	}
}

// reclaim expires overdue leases, returning their uncovered ranges to
// the pending list with an incremented reissue count. It reports how
// many leases were reclaimed.
func (t *leaseTable) reclaim(now time.Time) int {
	n := 0
	for id, l := range t.active {
		if now.After(l.deadline) {
			delete(t.active, id)
			t.uncovered(l.lo, l.hi, l.issues+1)
			t.obs.reclaims.Inc()
			n++
		}
	}
	return n
}

// closeCovered retires active leases whose whole range has accepted
// results (their own worker's, or a thief's — either way the work is
// done).
func (t *leaseTable) closeCovered() {
	for id, l := range t.active {
		done := true
		for p := l.lo; p < l.hi; p++ {
			if !t.has(p) {
				done = false
				break
			}
		}
		if done {
			delete(t.active, id)
		}
	}
}

// heartbeat extends a live lease's deadline and reports whether the
// lease was still active.
func (t *leaseTable) heartbeat(id int64, now time.Time) bool {
	l, ok := t.active[id]
	if !ok {
		return false
	}
	l.deadline = now.Add(t.timeout)
	return true
}

// grant hands the worker its next lease: a cost-budgeted prefix of
// the first pending span (budget halved per reissue), or — when
// nothing is pending but leases are still out — a duplicate of the
// unfinished tail of the most loaded old-enough lease (work
// stealing; safe because duplicate results dedupe byte-identically).
// It returns nil when there is nothing to hand out right now.
func (t *leaseTable) grant(worker string, now time.Time) *lease {
	for len(t.pending) > 0 {
		s := t.pending[0]
		for s.lo < s.hi && t.has(s.lo) {
			s.lo++
		}
		if s.lo >= s.hi {
			t.pending = t.pending[1:]
			continue
		}
		budget := t.chunkCost / float64(uint(1)<<min(s.issues, 6))
		hi, cum := s.lo, 0.0
		for hi < s.hi && (hi == s.lo || cum+t.costs[hi] <= budget) {
			cum += t.costs[hi]
			hi++
		}
		if hi < s.hi {
			t.pending[0] = span{lo: hi, hi: s.hi, issues: s.issues}
		} else {
			t.pending = t.pending[1:]
		}
		return t.issue(worker, s.lo, hi, s.issues, now)
	}
	return t.steal(worker, now)
}

// findVictim picks the steal target: an active lease older than half
// its timeout, not already robbed, with at least two points missing —
// the one with the most unfinished cost. Nil when no lease qualifies.
func (t *leaseTable) findVictim(now time.Time) *lease {
	var victim *lease
	victimCost := 0.0
	for _, l := range t.active {
		if l.stolen || now.Sub(l.granted) < t.timeout/2 {
			continue
		}
		missing, cost := 0, 0.0
		for p := l.lo; p < l.hi; p++ {
			if !t.has(p) {
				missing++
				cost += t.costs[p]
			}
		}
		if missing < 2 {
			continue
		}
		if victim == nil || cost > victimCost {
			victim, victimCost = l, cost
		}
	}
	return victim
}

// steal duplicates the tail half of the unfinished points of the
// best victim (see findVictim). The victim keeps its lease — whoever
// finishes first wins, the loser's lines land as duplicates.
func (t *leaseTable) steal(worker string, now time.Time) *lease {
	victim := t.findVictim(now)
	if victim == nil {
		return nil
	}
	var missing []int
	for p := victim.lo; p < victim.hi; p++ {
		if !t.has(p) {
			missing = append(missing, p)
		}
	}
	victim.stolen = true
	t.obs.steals.Inc()
	start := missing[len(missing)/2]
	return t.issue(worker, start, victim.hi, victim.issues+1, now)
}

// issue registers and returns a new active lease over [lo, hi).
func (t *leaseTable) issue(worker string, lo, hi, issues int, now time.Time) *lease {
	t.obs.grants.Inc()
	if issues > 0 {
		t.obs.reissues.Inc()
	}
	t.nextID++
	l := &lease{
		id:       t.nextID,
		lo:       lo,
		hi:       hi,
		issues:   issues,
		worker:   worker,
		granted:  now,
		deadline: now.Add(t.timeout),
	}
	t.active[l.id] = l
	return l
}

// untilEvent caps d at the time until a lease expires (reclaim fires a
// nanosecond past its deadline) or turns stealable (granted+timeout/2,
// if not robbed). Past instants do not count: a park cannot spin.
func (t *leaseTable) untilEvent(now time.Time, d time.Duration) time.Duration {
	for _, l := range t.active {
		if at := l.deadline.Add(time.Nanosecond).Sub(now); at > 0 {
			d = min(d, at)
		}
		if at := l.granted.Add(t.timeout / 2).Sub(now); at > 0 && !l.stolen {
			d = min(d, at)
		}
	}
	return d
}

// hasWork reports whether grant would hand out a lease right now:
// an uncovered pending point exists, or a straggler is eligible for
// stealing. The fair scheduler uses it to decide which sweeps are
// runnable before charging anyone's debt.
func (t *leaseTable) hasWork(now time.Time) bool {
	if t.pendingPoints() > 0 {
		return true
	}
	return t.findVictim(now) != nil
}

// clear drops every pending span and active lease — the sweep was
// cancelled, so nothing will be granted or accepted again. It reports
// how many active leases were reclaimed; their workers learn via a
// Cancelled heartbeat or result ack.
func (t *leaseTable) clear() int {
	n := len(t.active)
	t.pending = nil
	t.active = make(map[int64]*lease)
	for i := 0; i < n; i++ {
		t.obs.reclaims.Inc()
	}
	return n
}

// pendingPoints counts points queued for assignment (not done, not
// actively leased).
func (t *leaseTable) pendingPoints() int {
	n := 0
	for _, s := range t.pending {
		for p := s.lo; p < s.hi; p++ {
			if !t.has(p) {
				n++
			}
		}
	}
	return n
}
