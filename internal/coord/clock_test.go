package coord

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced Clock: Now reads the
// fake time, and a timer fires when Advance moves the time to or past
// its instant — never on its own, so a request parked on it waits
// until the test moves time.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	timers []*fakeTimer
	// armed is closed and replaced whenever a timer is armed, so a test
	// can wait for a goroutine to park.
	armed chan struct{}
}

type fakeTimer struct {
	at time.Time
	c  chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0), armed: make(chan struct{})}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm := &fakeTimer{at: c.t.Add(d), c: make(chan time.Time, 1)}
	if d <= 0 {
		tm.c <- c.t
		return tm.c, func() bool { return false }
	}
	c.timers = append(c.timers, tm)
	close(c.armed)
	c.armed = make(chan struct{})
	return tm.c, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, p := range c.timers {
			if p == tm {
				c.timers = append(c.timers[:i], c.timers[i+1:]...)
				return true
			}
		}
		return false
	}
}

// Advance moves the fake time forward by d and fires every timer whose
// instant it reaches.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	kept := c.timers[:0]
	for _, tm := range c.timers {
		if tm.at.After(c.t) {
			kept = append(kept, tm)
		} else {
			tm.c <- c.t
		}
	}
	c.timers = kept
}

// advanceTo moves the fake time forward to at.
func (c *fakeClock) advanceTo(at time.Time) { c.Advance(at.Sub(c.Now())) }

// parkedAt waits until a goroutine is parked on the clock and returns
// the earliest instant one of its timers fires at. It reports false
// if done closes first: whatever was to park has returned instead.
func (c *fakeClock) parkedAt(t *testing.T, done <-chan struct{}) (time.Time, bool) {
	t.Helper()
	for {
		c.mu.Lock()
		armed, timers := c.armed, c.timers
		var at time.Time
		for _, tm := range timers {
			if at.IsZero() || tm.at.Before(at) {
				at = tm.at
			}
		}
		c.mu.Unlock()
		if len(timers) > 0 {
			return at, true
		}
		select {
		case <-armed:
		case <-done:
			return time.Time{}, false
		case <-time.After(10 * time.Second):
			t.Fatal("nothing parked on the fake clock and nothing returned")
		}
	}
}

// async runs f on another goroutine; the channel closes when f returns.
func async(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// leaseAsync sends one /lease from another goroutine. Once answered
// closes, *rec holds the answer; decode it with decodeLease.
func leaseAsync(h http.Handler, worker string, rec **httptest.ResponseRecorder) <-chan struct{} {
	return async(func() {
		r := httptest.NewRecorder()
		h.ServeHTTP(r, httptest.NewRequest(http.MethodPost, "/lease", strings.NewReader(`{"worker":"`+worker+`"}`)))
		*rec = r
	})
}

// decodeLease decodes a /lease answer recorded by leaseAsync.
func decodeLease(t *testing.T, rec *httptest.ResponseRecorder) LeaseResponse {
	t.Helper()
	var lr LeaseResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("lease: HTTP %d (%s)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatalf("lease: decoding %q: %v", rec.Body.String(), err)
	}
	return lr
}

// TestIdleLeaseWakesAtLeaseExpiry: an idle /lease parked on the clock
// while an unheartbeated lease is out is answered with that lease's
// reclaimed range as soon as the clock passes the deadline — not at
// the deadline itself, where reclaim does not fire yet, and not a
// RetryMS later. The lease lacks a single point, so it can never be
// robbed: its past steal eligibility must not end the park early.
func TestIdleLeaseWakesAtLeaseExpiry(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	points, lines := sweepLines(t, spec, seed)
	clock := newFakeClock()
	srv, err := New(Config{Spec: spec, Seed: seed, LeaseTimeout: 10 * time.Second, Chunks: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	la := requestLease(t, h, "A")
	if la.Lease == nil || la.Lease.Len() != len(points) {
		t.Fatalf("expected a whole-sweep lease, got %+v", la)
	}
	deadline := clock.Now().Add(10 * time.Second)
	last := len(points) - 1
	if code, _, body := postLines(t, h, "A", la.Lease, lines[:last]); code != http.StatusOK {
		t.Fatalf("partial post: HTTP %d (%s)", code, body)
	}

	// One second before the deadline, well inside RetryMS (1.25 s).
	clock.advanceTo(deadline.Add(-time.Second))
	var rec *httptest.ResponseRecorder
	answered := leaseAsync(h, "B", &rec)
	at, parked := clock.parkedAt(t, answered)
	if !parked {
		t.Fatalf("idle /lease answered without parking: %s", rec.Body.String())
	}
	if want := deadline.Add(time.Nanosecond); !at.Equal(want) {
		t.Fatalf("parked until %v, want one nanosecond past the deadline %v", at, want)
	}
	clock.advanceTo(deadline)
	if at, parked := clock.parkedAt(t, answered); !parked || !at.Equal(deadline.Add(time.Nanosecond)) {
		t.Fatalf("at the deadline, where reclaim does not fire yet, the request is no longer parked until just past it (parked %v, until %v)", parked, at)
	}
	clock.Advance(time.Nanosecond)
	<-answered
	lb := decodeLease(t, rec)
	if lb.Lease == nil || lb.Lease.Lo != last || lb.Lease.Hi != len(points) {
		t.Fatalf("parked request answered %+v, want the reclaimed range [%d,%d)", lb, last, len(points))
	}
}

// TestDrainReturnsAtLastLeaseExpiry: on the fake clock, Drain parks
// while leases are out and returns exactly when the last of them
// expires, one nanosecond past its deadline — no real-time sleep.
func TestDrainReturnsAtLastLeaseExpiry(t *testing.T) {
	clock := newFakeClock()
	srv, err := New(Config{Spec: "smoke", Seed: 1, LeaseTimeout: 10 * time.Second, Chunks: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if l := requestLease(t, h, "A"); l.Lease == nil {
		t.Fatal("A got no lease")
	}
	clock.Advance(3 * time.Second)
	if l := requestLease(t, h, "B"); l.Lease == nil {
		t.Fatal("B got no lease")
	}
	last := clock.Now().Add(10 * time.Second).Add(time.Nanosecond)

	var drainErr error
	drained := async(func() { drainErr = srv.Drain(context.Background()) })
	for {
		at, parked := clock.parkedAt(t, drained)
		if !parked {
			break
		}
		if at.After(last) {
			t.Fatalf("Drain parked until %v, past the last lease's expiry %v", at, last)
		}
		clock.advanceTo(at)
	}
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	if now := clock.Now(); !now.Equal(last) {
		t.Fatalf("Drain returned at %v, want the last lease's expiry %v", now, last)
	}
	if st := srv.Status(); st.ActiveLeases != 0 {
		t.Fatalf("drained with %d leases still out", st.ActiveLeases)
	}
}

// TestOneClock guards the one-clock rule: the coordinator's server
// files read and wait on time only through Config.Clock. The only
// exceptions are realClock itself and the host-cost reads behind
// coord_results_decode_us and coord_results_locked_us, which measure
// the host, not the protocol.
func TestOneClock(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "After": true, "AfterFunc": true, "Tick": true,
	}
	allowed := map[string]int{
		"realClock.Now":      1,
		"realClock.NewTimer": 1,
		"handleResults":      2, // decodeUS: time.Now, time.Since
		"ingestResults":      2, // lockedUS: time.Now, time.Since
	}
	fset := token.NewFileSet()
	for _, file := range []string{"server.go", "lease.go", "sweep.go", "obs.go", "sched.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		used := map[string]int{}
		for _, decl := range f.Decls {
			name := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
				if fn.Recv != nil {
					if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && banned[sel.Sel.Name] {
					if used[name]++; used[name] > allowed[name] {
						t.Errorf("%s: time.%s in %s bypasses Config.Clock", fset.Position(sel.Pos()), sel.Sel.Name, name)
					}
				}
				return true
			})
		}
	}
}
