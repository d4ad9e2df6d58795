package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpsockit/internal/coord"
	"mpsockit/internal/obs"
)

const (
	// farmWorkers coord.Workers run one evaluation worker each.
	farmWorkers = 2
	// farmTimeout bounds one farm pass; a healthy pass takes ~1 s.
	farmTimeout = 90 * time.Second
	// exitWait bounds how long a traced pass waits for workers to
	// notice completion on their own.
	exitWait = 20 * time.Second
)

// farmOpts selects what one farm pass records.
type farmOpts struct {
	// traced records every coordinator round trip and the workers'
	// evaluation spans.
	traced bool
	// waitExit lets the workers find the farm done by themselves
	// instead of cancelling them at Server.Done, and measures the lag.
	waitExit bool
	// setupOnly ends the pass at the first lease granted.
	setupOnly bool
}

// call is one coordinator HTTP round trip seen by the timing transport.
type call struct {
	worker int
	path   string
	start  time.Time
	dur    time.Duration // request sent to response body closed
	bytes  int64         // request plus response body bytes
	retry  time.Duration // RetryMS of a /lease answer that granted nothing
}

// wireLog collects the round trips of every worker of one farm pass.
type wireLog struct {
	record bool

	mu         sync.Mutex
	firstLease time.Time
	leased     chan struct{}
	calls      []call
}

func newWireLog(record bool) *wireLog {
	return &wireLog{record: record, leased: make(chan struct{})}
}

func (l *wireLog) markLease(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.firstLease.IsZero() {
		l.firstLease = t
		close(l.leased)
	}
}

func (l *wireLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// timingTransport is the http.RoundTripper handed to
// coord.WorkerConfig.Client: it notes the first /lease answer (the end
// of farm set-up) and, when recording, times every round trip.
type timingTransport struct {
	base   http.RoundTripper
	log    *wireLog
	worker int
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.URL.Path == "/lease" {
		t.log.markLease(time.Now())
	}
	if t.log.record {
		resp.Body = &timedBody{rc: resp.Body, log: t.log, c: call{worker: t.worker, path: req.URL.Path, start: start, bytes: max(req.ContentLength, 0)}}
	}
	return resp, nil
}

// timedBody closes a round trip's record when the worker closes the
// response body, keeping /lease bodies to read the retry delay.
type timedBody struct {
	rc   io.ReadCloser
	log  *wireLog
	c    call
	buf  bytes.Buffer
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.c.bytes += int64(n)
	if b.c.path == "/lease" {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		b.c.dur = time.Since(b.c.start)
		if b.c.path == "/lease" {
			var lr coord.LeaseResponse
			if json.Unmarshal(b.buf.Bytes(), &lr) == nil && lr.Lease == nil && !lr.Done {
				b.c.retry = time.Duration(lr.RetryMS) * time.Millisecond
			}
		}
		b.log.add(b.c)
	})
	return err
}

// interval is one timed evaluation inside a farm worker.
type interval struct {
	start time.Time
	dur   time.Duration
}

// farmTrace is what a traced farm pass records beyond its rep.
type farmTrace struct {
	start, done time.Time // first lease granted, Server.Done
	calls       []call
	evals       [farmWorkers][]interval // each worker's "eval" spans
	evalTime    time.Duration           // Σ of every worker's eval spans
	exitLag     time.Duration
	finalize    time.Duration
	accepted    float64
	dups        float64
}

// farmRep runs the spec once on a coordinator in boot mode behind a
// loopback HTTP server, with farmWorkers coord.Workers of one
// evaluation worker each, and checks Server.WriteFinal.
func farmRep(spec string, seed uint64, dir string, o farmOpts) (rep, *farmTrace, error) {
	tmp, err := os.MkdirTemp(dir, "farm-")
	if err != nil {
		return rep{}, nil, err
	}
	defer os.RemoveAll(tmp)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler()
	wl := newWireLog(o.traced)
	// Each worker gets its own obs.Tracer, so its eval spans can be
	// told apart; epochs anchor the tracers' relative timestamps.
	var traceBufs [farmWorkers]bytes.Buffer
	var tracers [farmWorkers]*obs.Tracer
	var epochs [farmWorkers]time.Time
	if o.traced {
		for i := range tracers {
			epochs[i] = time.Now()
			tracers[i] = obs.NewTracer(&traceBufs[i])
		}
	}

	t0 := time.Now()
	srv, err := coord.New(coord.Config{Spec: spec, Seed: seed, CheckpointPath: filepath.Join(tmp, "sweep.jsonl")})
	if err != nil {
		hs.stopPeak()
		return rep{}, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, farmWorkers)
	exited := make([]time.Time, farmWorkers)
	transports := make([]*http.Transport, farmWorkers)
	for i := range transports {
		transports[i] = http.DefaultTransport.(*http.Transport).Clone()
		w := coord.NewWorker(coord.WorkerConfig{
			URL:     ts.URL,
			ID:      fmt.Sprintf("bench-w%d", i),
			Workers: 1,
			Client:  &http.Client{Transport: &timingTransport{base: transports[i], log: wl, worker: i}},
			Tracer:  tracers[i],
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
			exited[i] = time.Now()
		}(i)
	}
	allExited := make(chan struct{})
	go func() {
		wg.Wait()
		close(allExited)
	}()

	var waitErr error
	end := srv.Done()
	if o.setupOnly {
		end = wl.leased
	}
	select {
	case <-end:
	case <-allExited:
		waitErr = errors.New("farm workers exited before the sweep completed")
	case <-time.After(farmTimeout):
		waitErr = fmt.Errorf("farm did not complete within %v", farmTimeout)
	}
	tDone := time.Now()
	peak := hs.stopPeak()
	runtime.ReadMemStats(&m1)
	if o.waitExit && waitErr == nil {
		select {
		case <-allExited:
		case <-time.After(exitWait):
		}
	}
	cancel()
	<-allExited
	ts.Close()
	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	defer srv.Close()
	if waitErr != nil {
		return rep{}, nil, waitErr
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return rep{}, nil, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	wl.mu.Lock()
	first := wl.firstLease
	wl.mu.Unlock()
	r := rep{setup: first.Sub(t0), points: len(srv.Points()), alloc: m1.TotalAlloc - m0.TotalAlloc, peak: peak}
	if o.setupOnly {
		return r, nil, nil
	}
	r.run = tDone.Sub(first)

	tf := time.Now()
	fh := sha256.New()
	if err := srv.WriteFinal(fh); err != nil {
		return rep{}, nil, err
	}
	finalize := time.Since(tf)
	r.sha = hexSum(fh)
	chk := checker{n: r.points}
	for _, res := range srv.Results() {
		chk.add(res)
	}
	r.failed = chk.finish()
	r.logMk, r.nMk = chk.logMk, chk.nMk
	if !o.traced {
		return r, nil, nil
	}

	ft := &farmTrace{start: first, done: tDone, calls: wl.calls, finalize: finalize}
	if o.waitExit {
		last := exited[0]
		for _, t := range exited[1:] {
			if t.After(last) {
				last = t
			}
		}
		ft.exitLag = last.Sub(tDone)
	}
	for i, t := range tracers {
		if err := t.Close(); err != nil {
			return rep{}, nil, err
		}
		var events []struct {
			Name string `json:"name"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		}
		if err := json.Unmarshal(traceBufs[i].Bytes(), &events); err != nil {
			return rep{}, nil, fmt.Errorf("reading worker %d trace: %w", i, err)
		}
		for _, e := range events {
			if e.Name == "eval" {
				d := time.Duration(e.Dur) * time.Microsecond
				ft.evals[i] = append(ft.evals[i], interval{epochs[i].Add(time.Duration(e.TS) * time.Microsecond), d})
				ft.evalTime += d
			}
		}
	}
	snap := srv.Registry().Snapshot()
	ft.accepted = snap["coord_results_accepted_total"].Value
	ft.dups = snap["coord_result_duplicates_total"].Value
	return r, ft, nil
}

// farmSetup times the farm's set-up alone: coordinator boot, worker
// hello and sweep verification, up to the first lease.
func farmSetup(spec string, seed uint64, dir string) (time.Duration, error) {
	r, _, err := farmRep(spec, seed, dir, farmOpts{setupOnly: true})
	return r.setup, err
}
