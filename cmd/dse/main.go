// Command dse runs parallel design-space exploration sweeps: the
// cross product of platform configurations × mapping heuristics ×
// workloads × simulation fidelities, evaluated on a worker pool with
// one private event kernel per design point.
//
// Usage:
//
//	dse [-sweep SPEC] [-workers N] [-seed S] [-out FILE] [-resume]
//	    [-merge GLOB] [-pareto] [-hypervolume]
//	    [-metrics-out FILE] [-trace FILE]
//	dse -connect URL [-worker-id ID] [-worker-dir DIR] [-workers N]
//	    [-metrics-out FILE] [-trace FILE]
//
// SPEC is a preset (smoke, default) or a ';'-separated dimension
// list, e.g.:
//
//	dse -sweep 'plat=homog8,wireless;fab=mesh,bus;wl=jpeg,h264;heur=list,anneal;fid=mvp,vp64'
//
// The plat dimension also accepts custom heterogeneous core mixes and
// the wl dimension concurrent multi-application scenarios (full
// grammar in the internal/dse package docs):
//
//	dse -sweep 'plat=2xrisc+4xdsp+1xvliw,8xrisc@600;wl=multi:jpeg+carradio+synth8,jpeg'
//
// The fid dimension's cal:K token scores points at task-level speed
// with WCET scale factors calibrated against K instruction-level vp
// probe measurements per (platform, workload) group; the fitted
// factor and fit residual are emitted per point (cal_scale, cal_rms):
//
//	dse -sweep 'plat=homog8;wl=jpeg,synth16;heur=list,anneal;fid=cal:1'
//
// The mem dimension sweeps memory-subsystem contention models:
// mem=ideal (the default, infinite-bandwidth memory), mem=bank:BxC
// (B banks behind C DMA channels with deterministic queueing) and
// mem=bw:G (a single bandwidth-shared DMA engine). Contended points
// report mem_transfers/mem_wait_ps; mem=ideal points are
// byte-identical to points with no mem= dimension at all:
//
//	dse -sweep 'plat=homog4,wireless;wl=jpeg;heur=list;mem=ideal,bank:4x2,bw:8'
//
// Results stream to -out as JSONL — a provenance header line followed
// by one result per line, in point order — so a sweep is
// byte-reproducible for a given -seed and can resume from a partial
// file with -resume (the header is validated; resuming a file from a
// different sweep or seed fails loudly).
//
// SIGINT/SIGTERM stop a sweep gracefully: in-flight evaluations
// finish, the completed prefix is flushed as a valid -resume
// checkpoint, and the process exits nonzero.
//
// Telemetry is opt-in and never changes output bytes: -metrics-out
// dumps a JSON summary of the sweep's internal counters and latency
// histograms on exit, and -trace records one span per evaluated point
// (plus sweep expansion and, in -connect mode, lease and result-flush
// round-trips) as Chrome trace-event JSON for ui.perfetto.dev. Both
// work in standalone and -connect modes; see docs/observability.md.
//
// The second form joins a dsed coordinator as a worker: the sweep
// spec comes from the coordinator (and is verified against the local
// engine's expansion), leased point ranges are evaluated on the local
// pool, and result lines stream back with retry and deterministic
// backoff. This is the one way to spread a sweep over processes and
// hosts; see docs/dsed.md.
//
// -merge GLOB combines a complete set of sweep files offline: a
// finished sweep file, or a coordinator log plus the lease
// checkpoints workers left under -worker-dir. It validates the
// headers, de-duplicates on point ID, and writes a file
// byte-identical to a standalone run of the same spec and seed.
//
// -pareto prints the per-workload latency/energy/area Pareto front
// and an ASCII scatter; -hypervolume prints the hypervolume indicator
// of each front (the front-quality number to compare sweeps by).
// Hypervolumes from different sweeps are only comparable inside a
// shared reference box: pass the other sweep's JSONL as -hv-ref so
// both runs are measured against the same per-workload worst/ideal
// points. Reports go to stdout, or to stderr when -out is '-' (the
// JSONL stream owns stdout then).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mpsockit/internal/coord"
	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

func main() {
	sweepSpec := flag.String("sweep", "default", "sweep preset (smoke, default) or dimension list")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "sweep seed; same seed + same sweep = identical output")
	out := flag.String("out", "dse.jsonl", "JSONL results file ('-' = stdout)")
	resume := flag.Bool("resume", false, "reuse the valid prefix of an existing -out checkpoint (header must match)")
	mergeGlob := flag.String("merge", "", "merge sweep JSONL files matching this glob into -out instead of sweeping")
	pareto := flag.Bool("pareto", false, "print the Pareto front and ASCII scatter")
	hypervolume := flag.Bool("hypervolume", false, "print the per-workload front hypervolume indicator")
	hvRef := flag.String("hv-ref", "", "JSONL sweep file whose results co-define the hypervolume reference box (for cross-sweep comparison)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on clean exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics summary (eval latency histograms, cache and kernel counters) to this file on exit")
	traceOut := flag.String("trace", "", "write per-point trace spans (Chrome trace-event JSON, loadable in ui.perfetto.dev) to this file")
	connect := flag.String("connect", "", "join a dsed coordinator at this base URL as a worker instead of sweeping locally")
	workerID := flag.String("worker-id", "", "worker identity in -connect mode (default host-pid)")
	workerDir := flag.String("worker-dir", "", "directory for locally checkpointing leases the coordinator could not be told about (-connect mode)")
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// SIGINT/SIGTERM cancel the context: in-flight evaluations finish,
	// the ordered prefix is flushed as a valid checkpoint, and the
	// process exits nonzero so supervisors see the sweep as unfinished.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Telemetry is opt-in and side-channel only: with -metrics-out the
	// evaluation pipeline counts into a registry dumped as JSON on
	// exit, and with -trace every evaluated point (plus sweep expansion
	// and, in -connect mode, lease/flush round-trips) becomes a span.
	// Neither changes a single output byte (see docs/observability.md).
	var (
		reg    *obs.Registry
		evObs  dse.EvalObs
		tracer *obs.Tracer
	)
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		evObs = dse.NewEvalObs(reg)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		tracer = obs.NewTracer(f)
		defer f.Close()
	}
	flushTelemetry = func() {
		flushTelemetry = func() {}
		if tracer != nil {
			if err := tracer.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dse: trace -> %s (%d spans)\n", *traceOut, tracer.Spans())
		}
		if reg != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			if err := reg.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dse: metrics -> %s\n", *metricsOut)
		}
	}
	// Late-bound so the deferred call sees the no-op flushTelemetry
	// installs on first use rather than the original closure.
	defer func() { flushTelemetry() }()

	if *connect != "" {
		runWorker(ctx, *connect, *workerID, *workerDir, *workers, evObs, tracer)
		flushTelemetry()
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPUProfile = func() {
			stopCPUProfile = func() {}
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	baseline := loadBaseline(*hvRef)
	if *mergeGlob != "" {
		merge(*mergeGlob, *out, *pareto, *hypervolume, baseline)
		return
	}

	expandStart := time.Now()
	points, header, err := dse.Expand(*sweepSpec, *seed)
	if err != nil {
		fatal(err)
	}
	if tracer != nil {
		tracer.Span("expand", "sweep", -1, expandStart, time.Since(expandStart),
			obs.Arg{Key: "points", Val: int64(len(points))})
	}

	var prefix []dse.Result
	if *resume && *out != "-" {
		// A torn final line is fine here: everything from it on is
		// re-evaluated anyway.
		lg, err := dse.ReadLog(*out)
		if err == nil && lg != nil {
			if err = lg.Header.Check(header); err == nil {
				prefix = dse.MatchPrefix(points, lg.Results)
			} else {
				err = fmt.Errorf("%s is from a different sweep (%v); delete it or drop -resume", *out, err)
			}
		}
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
	}

	sink, closeSink := openSink(*out)
	defer closeSink()
	if err := dse.WriteHeader(sink, header); err != nil {
		fatal(err)
	}
	for _, r := range prefix {
		if err := dse.WriteResult(sink, r); err != nil {
			fatal(err)
		}
	}

	remaining := points[len(prefix):]
	fmt.Fprintf(os.Stderr, "dse: %d design points (%d from checkpoint), %d-worker pool\n",
		len(points), len(prefix), *workers)
	start := time.Now()
	emitted := len(prefix)
	eng := &dse.Engine{Workers: *workers, Obs: evObs, Tracer: tracer, OnResult: func(r dse.Result) {
		if err := dse.WriteResult(sink, r); err != nil {
			fatal(err)
		}
		emitted++
		if emitted%100 == 0 {
			fmt.Fprintf(os.Stderr, "dse: %d/%d evaluated (%.1fs)\n",
				emitted, len(points), time.Since(start).Seconds())
		}
	}}
	results := append(prefix, eng.RunContext(ctx, remaining)...)
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "dse: interrupted; %d/%d points flushed to %s as a valid checkpoint (resume with -resume)\n",
			len(results), len(points), *out)
		closeSink()
		stopCPUProfile()
		flushTelemetry()
		os.Exit(130)
	}

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "dse: point %d (%s %s %s/%s) failed: %s\n",
				r.Point.ID, r.Point.Plat, r.Point.Workload, r.Point.Heuristic, r.Point.Fidelity, r.Err)
		}
	}
	fmt.Fprintf(os.Stderr, "dse: evaluated %d points (%d failed) in %.2fs\n",
		len(remaining), failed, time.Since(start).Seconds())
	report(results, *pareto, *hypervolume, baseline, reportWriter(*out))
}

// runWorker joins a dsed coordinator and evaluates leased point
// ranges until the sweep completes (exit 0), the worker is
// interrupted (exit 130), or the coordinator stays unreachable past
// the retry budget (exit 1; any undelivered lease is checkpointed
// under -worker-dir and resubmitted on the next join with the same
// -worker-id). -metrics-out and -trace apply here too: evObs counts
// this worker's share of the sweep and tracer records lease/eval/flush
// spans.
func runWorker(ctx context.Context, url, id, dir string, workers int, evObs dse.EvalObs, tracer *obs.Tracer) {
	w := coord.NewWorker(coord.WorkerConfig{
		URL:           url,
		ID:            id,
		Workers:       workers,
		CheckpointDir: dir,
		Log:           log.New(os.Stderr, "dse: ", 0),
		Obs:           evObs,
		Tracer:        tracer,
	})
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "dse: worker interrupted")
			flushTelemetry()
			os.Exit(130)
		}
		fatal(err)
	}
}

// merge combines the sweep files matching glob into out and optionally
// reports fronts and hypervolumes over the union.
func merge(glob, out string, pareto, hypervolume bool, baseline []dse.Result) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("merge: no files match %q", glob))
	}
	acc, header, err := dse.MergeShards(paths)
	if err != nil {
		fatal(err)
	}
	sink, closeSink := openSink(out)
	defer closeSink()
	if _, err := acc.WriteTo(sink, header); err != nil {
		fatal(err)
	}
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dse: merged %d files -> %d points (%d duplicate lines dropped)\n",
		len(paths), acc.Done(), acc.Duplicates())
	report(acc.Results(), pareto, hypervolume, baseline, reportWriter(out))
}

// openSink opens the JSONL output stream: stdout for "-", otherwise
// the (truncated) file at path. The cleanup closes the file; callers
// still Flush the writer before reporting.
func openSink(path string) (*bufio.Writer, func()) {
	if path == "-" {
		return bufio.NewWriter(os.Stdout), func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return bufio.NewWriter(f), func() { f.Close() }
}

// reportWriter keeps human-readable reports off the JSONL stream:
// they share stdout only when the results are going to a file.
func reportWriter(out string) io.Writer {
	if out == "-" {
		return os.Stderr
	}
	return os.Stdout
}

// loadBaseline reads the -hv-ref sweep file, whose results widen the
// hypervolume reference box so two sweeps measure in the same frame.
func loadBaseline(path string) []dse.Result {
	if path == "" {
		return nil
	}
	lg, err := dse.ReadLog(path)
	switch {
	case err != nil:
		fatal(fmt.Errorf("hv-ref: %w", err))
	case lg == nil || lg.Torn:
		fatal(fmt.Errorf("hv-ref: %s is missing, empty or torn; the baseline must be a complete sweep file", path))
	}
	return lg.Results
}

// report prints the optional front table, scatter and hypervolume
// summaries for a complete result set.
func report(results []dse.Result, pareto, hypervolume bool, baseline []dse.Result, w io.Writer) {
	if pareto {
		front := dse.GroupedFront(results)
		fmt.Fprint(w, dse.FrontTable(results, front))
		fmt.Fprint(w, dse.Scatter(results, front, 72, 24))
	}
	if hypervolume {
		if len(baseline) > 0 && !dse.BaselineOverlaps(results, baseline) {
			fatal(fmt.Errorf("hv-ref: baseline shares no workload instances with this sweep (different -seed or workloads?); the hypervolumes would not be comparable"))
		}
		fmt.Fprint(w, dse.HVTable(dse.HypervolumesShared(results, baseline), len(baseline) > 0))
	}
}

// writeMemProfile dumps the heap profile (after a final GC) to path;
// no-op when path is empty.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

// stopCPUProfile flushes an in-progress CPU profile; fatal calls it
// so error exits (which bypass main's defers) still leave a readable
// profile behind.
var stopCPUProfile = func() {}

// flushTelemetry closes the -trace span stream and writes the
// -metrics-out summary; like stopCPUProfile it is a package variable
// so the os.Exit paths (interrupt, fatal) can flush what main's defers
// would have. It replaces itself with a no-op on first call.
var flushTelemetry = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dse:", err)
	stopCPUProfile()
	flushTelemetry()
	os.Exit(1)
}
