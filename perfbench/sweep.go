package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"mpsockit/internal/dse"
)

// workloadDef is one benchmark workload: a sweep spec, the seed it
// runs at when the caller gives none, how many sweep seeds one run
// covers, and whether it runs on the loopback farm instead of an
// in-process engine.
type workloadDef struct {
	name string
	spec string
	seed uint64
	// inputs is how many sweep seeds, derived from the run's seed by
	// subSeed, one run evaluates. Simulated makespans, vp platform
	// shapes and so allocation vary from one sweep seed to the next;
	// a run over several of them repeats from seed to seed.
	inputs int
	farm   bool
}

// The three workloads; METRICS.md records why each was chosen.
var workloads = []workloadDef{
	{name: "sweep_default", spec: "default", seed: 1, inputs: 8},
	{name: "sweep_tasklevel", seed: 7, inputs: 6, spec: "plat=homog4,homog8,homog16,mpcore4,wireless,celllike4,2xrisc+4xdsp+1xvliw;" +
		"fab=mesh,bus;dvfs=0,1,2;mem=ideal,bank:4x2,bw:8;wl=jpeg,h264,synth32,synth64,multi:jpeg+carradio+synth8;" +
		"heur=list,anneal;fid=mvp,pipe8"},
	{name: "farm_loopback", seed: 3, inputs: 8, farm: true, spec: "plat=homog2,homog4,homog8,homog16,mpcore2,mpcore4,wireless," +
		"celllike2,celllike4,2xrisc+4xdsp,1xctrl+2xdsp+1xvliw,4xrisc@600;fab=mesh,bus;dvfs=0,1,2;mem=ideal,bank:4x2,bw:8;" +
		"wl=jpeg,h264,carradio,synth8,synth16,synth32,multi:jpeg+carradio,jobs16;heur=list;fid=mvp,pipe4,pipe8"},
}

// subSeed is the sweep seed of a run's j-th input; input 0 is the run's
// own seed.
func subSeed(seed uint64, j int) uint64 {
	return seed + uint64(j)*0x9e3779b97f4a7c15
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rep is one complete, checked pass of a workload.
type rep struct {
	setup  time.Duration // spec parse to first point dispatched
	run    time.Duration // first dispatch to last result (farm: Server.Done)
	points int           // points expected
	failed int           // points with Err, missing, duplicated or out of order
	sha    string        // SHA-256 of the sweep file bytes (header + result lines)
	alloc  uint64        // heap bytes allocated during the pass
	peak   uint64        // peak in-use heap during the pass
	logMk  float64       // Σ ln(makespan in ps) over points with a makespan
	nMk    int           // points with a makespan
}

func (r rep) pointsPerS() float64 { return ratio(float64(r.points), r.run.Seconds()) }

// repWire is a rep as a timed run's child process reports it.
type repWire struct {
	Setup, Run  time.Duration
	Points      int
	Failed      int
	SHA         string
	Alloc, Peak uint64
	LogMk       float64
	NMk         int
}

func (r rep) wire() repWire {
	return repWire{r.setup, r.run, r.points, r.failed, r.sha, r.alloc, r.peak, r.logMk, r.nMk}
}

func (w repWire) rep() rep {
	return rep{w.Setup, w.Run, w.Points, w.Failed, w.SHA, w.Alloc, w.Peak, w.LogMk, w.NMk}
}

// checker validates a result stream: every point ID exactly once, in
// order, with no Err.
type checker struct {
	n, next, failed int
	logMk           float64
	nMk             int
}

func (c *checker) add(r dse.Result) {
	if r.Point.ID != c.next || r.Err != "" {
		c.failed++
	}
	if r.Point.ID == c.next {
		c.next++
	}
	if mk := float64(r.Metrics.Makespan); mk > 0 {
		c.logMk += math.Log(mk)
		c.nMk++
	}
}

// finish returns the failed-point count, charging points never seen.
func (c *checker) finish() int {
	if c.next < c.n {
		return c.failed + c.n - c.next
	}
	return c.failed
}

// geomeanUS is the geometric mean makespan of the passes' points in
// simulated microseconds (Metrics.Makespan is in picoseconds).
func geomeanUS(reps []rep) float64 {
	var logMk float64
	var n int
	for _, r := range reps {
		logMk += r.logMk
		n += r.nMk
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logMk/float64(n)) / 1e6
}

// expand parses and expands a spec and builds its header — the set-up
// every sweep entry point performs before dispatching a point.
func expand(spec string, seed uint64) ([]dse.Point, dse.Header, error) {
	sw, err := dse.ParseSweep(spec, seed)
	if err != nil {
		return nil, dse.Header{}, err
	}
	points, err := sw.Points()
	if err != nil {
		return nil, dse.Header{}, err
	}
	return points, dse.NewHeader(spec, seed, points, nil), nil
}

// newFileHash starts the SHA-256 of a sweep file with its header line.
func newFileHash(h dse.Header) (hash.Hash, error) {
	fh := sha256.New()
	if err := dse.WriteHeader(fh, h); err != nil {
		return nil, err
	}
	return fh, nil
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// sweepRep runs the spec once on a one-worker dse.Engine, streaming
// every result through dse.WriteResult into the file hash.
func sweepRep(spec string, seed uint64) (rep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler()
	t0 := time.Now()
	points, h, err := expand(spec, seed)
	if err != nil {
		hs.stopPeak()
		return rep{}, err
	}
	fh, err := newFileHash(h)
	if err != nil {
		hs.stopPeak()
		return rep{}, err
	}
	chk := checker{n: len(points)}
	var werr error
	eng := dse.Engine{Workers: 1, OnResult: func(r dse.Result) {
		if err := dse.WriteResult(fh, r); err != nil && werr == nil {
			werr = err
		}
		chk.add(r)
	}}
	t1 := time.Now()
	eng.Run(points)
	t2 := time.Now()
	peak := hs.stopPeak()
	runtime.ReadMemStats(&m1)
	if werr != nil {
		return rep{}, fmt.Errorf("encoding results: %w", werr)
	}
	return rep{
		setup: t1.Sub(t0), run: t2.Sub(t1), points: len(points), failed: chk.finish(),
		sha: hexSum(fh), alloc: m1.TotalAlloc - m0.TotalAlloc, peak: peak, logMk: chk.logMk, nMk: chk.nMk,
	}, nil
}

// sweepSetup times the set-up alone: parse, expand and header.
func sweepSetup(spec string, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := expand(spec, seed)
	return time.Since(t0), err
}

// referenceSHA is the file hash of an in-process dse.Engine run, the
// bytes a farm's Server.WriteFinal must reproduce. It uses every CPU:
// the bytes are the same for any worker count.
func referenceSHA(spec string, seed uint64) (string, error) {
	points, h, err := expand(spec, seed)
	if err != nil {
		return "", err
	}
	fh, err := newFileHash(h)
	if err != nil {
		return "", err
	}
	var werr error
	eng := dse.Engine{OnResult: func(r dse.Result) {
		if err := dse.WriteResult(fh, r); err != nil && werr == nil {
			werr = err
		}
	}}
	eng.Run(points)
	return hexSum(fh), werr
}
