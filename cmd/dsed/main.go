// Command dsed is the fault-tolerant multi-tenant sweep service: it
// holds a registry of concurrent sweeps, serves contiguous point-ID
// leases to dse workers over HTTP under cost-weighted fair
// scheduling, accumulates their streamed JSONL result lines
// idempotently per sweep, and produces for every sweep a final file
// byte-identical to a fault-free single-worker run — regardless of
// how many workers or tenants joined, died, stalled, retried or raced.
//
// Usage:
//
//	dsed [-addr :9090] [-sweep SPEC] [-seed S] [-out FILE]
//	     [-checkpoint FILE] [-checkpoint-dir DIR] [-resume]
//	     [-max-sweeps N] [-disk-budget BYTES] [-lease-timeout D]
//	     [-chunks N] [-drain-timeout D]
//	     [-pareto] [-hypervolume] [-status-interval D] [-pprof]
//
// Two modes:
//
//   - Single-shot (boot) mode, the default: -sweep names one sweep,
//     which dsed registers at startup exactly as POST /sweeps would.
//     Once that sweep is terminal, dsed writes -out and exits; other
//     sweeps in the registry do not hold it up.
//
//   - Service mode, -sweep "": dsed starts with an empty registry and
//     serves until signalled. Tenants register sweeps over HTTP
//     (POST /sweeps with {"spec":..., "seed":...}), watch them
//     (GET /sweeps, GET /sweeps/{id}, GET /sweeps/{id}/front), fetch
//     finished output (GET /sweeps/{id}/result) and cancel
//     (DELETE /sweeps/{id}). Admission control bounds active sweeps
//     (-max-sweeps → 429) and checkpoint disk (-disk-budget → 507).
//
// With -checkpoint-dir every sweep keeps a crash-resumable append-only
// log there; a restarted dsed rescans the directory and resumes every
// sweep it finds, so a coordinator crash with N sweeps active loses
// only unacked work. On SIGTERM/SIGINT the coordinator drains
// gracefully: no new leases, in-flight leases flush (bounded by
// -drain-timeout), checkpoints persist, exit 0. See docs/dsed.md for
// the protocol and failure-mode reference.
//
// Workers join with:
//
//	dse -connect http://host:9090 [-worker-id ID] [-workers N]
//
// Leases carry deadlines: a worker that stops submitting results and
// heartbeating has its remaining range reclaimed and reissued in
// smaller pieces, and an idle worker steals the unfinished tail of a
// straggler. Duplicated evaluation is harmless by construction —
// every per-point seed derives from the sweep seed alone, so repeated
// lines are byte-identical and dedupe on arrival; conflicting bytes
// mean a drifted engine and are refused loudly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpsockit/internal/coord"
	"mpsockit/internal/dse"
)

func main() {
	addr := flag.String("addr", ":9090", "HTTP listen address for the worker protocol")
	sweepSpec := flag.String("sweep", "default", "boot sweep preset (smoke, default) or dimension list; empty for multi-tenant service mode")
	seed := flag.Uint64("seed", 1, "boot sweep seed; same seed + same sweep = identical output")
	out := flag.String("out", "dse.jsonl", "final merged JSONL results file, written on boot-sweep completion")
	checkpoint := flag.String("checkpoint", "", "append the boot sweep's accepted result lines to this JSONL log (crash protection); rewritten as the final file on completion")
	checkpointDir := flag.String("checkpoint-dir", "", "per-sweep checkpoint logs live here as <sweep-id>.jsonl; rescanned and resumed on restart")
	resume := flag.Bool("resume", false, "re-accept the -checkpoint log before serving (header must match)")
	maxSweeps := flag.Int("max-sweeps", 16, "admission limit on concurrently active sweeps (further POST /sweeps get 429)")
	diskBudget := flag.Int64("disk-budget", 0, "refuse new sweeps with 507 once checkpoint logs exceed this many bytes; 0 = unlimited")
	leaseTimeout := flag.Duration("lease-timeout", 30*time.Second, "deadline before an unacked lease is reclaimed and reissued")
	chunks := flag.Int("chunks", 32, "target number of fresh leases each sweep is cut into")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, wait at most this long for in-flight leases before exiting")
	pareto := flag.Bool("pareto", false, "print the boot sweep's Pareto front and ASCII scatter on completion")
	hypervolume := flag.Bool("hypervolume", false, "print the boot sweep's per-workload front hypervolume indicator on completion")
	statusInterval := flag.Duration("status-interval", 30*time.Second, "log a live progress line (points/sec, ETA) this often; 0 disables")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	flag.Parse()

	if *resume && *checkpoint == "" && *checkpointDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint or -checkpoint-dir"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := log.New(os.Stderr, "dsed: ", log.LstdFlags)
	srv, err := coord.New(coord.Config{
		Spec:            *sweepSpec,
		Seed:            *seed,
		LeaseTimeout:    *leaseTimeout,
		Chunks:          *chunks,
		CheckpointPath:  *checkpoint,
		Resume:          *resume,
		CheckpointDir:   *checkpointDir,
		MaxSweeps:       *maxSweeps,
		DiskBudgetBytes: *diskBudget,
		Log:             logger,
		ProgressEvery:   50,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := srv.Handler()
	if *pprofOn {
		// Opt-in: the default pprof mux routes are copied under a mux
		// that falls through to the coordinator for everything else.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	st := srv.Status()
	logger.Printf("listening on %s (metrics at /metrics, status at /status)", ln.Addr())
	if *checkpointDir != "" {
		logger.Printf("checkpointing sweeps under %s (%d registered)", *checkpointDir, len(st.Sweeps))
	} else if *checkpoint != "" {
		logger.Printf("checkpointing accepted results to %s", *checkpoint)
	}
	if *pprofOn {
		logger.Printf("pprof enabled at /debug/pprof/")
	}
	if *sweepSpec != "" {
		logger.Printf("coordinating %q seed %d (%d points, %d done)",
			*sweepSpec, *seed, st.Total, st.Done)
	} else {
		logger.Printf("multi-tenant service mode: register sweeps with POST /sweeps (limit %d active)", *maxSweeps)
	}

	if *statusInterval > 0 {
		go func() {
			t := time.NewTicker(*statusInterval)
			defer t.Stop()
			for {
				select {
				case <-srv.Done():
					return
				case <-ctx.Done():
					return
				case <-t.C:
					st := srv.Status()
					active := 0
					for _, row := range st.Sweeps {
						if row.State == coord.SweepActive {
							active++
						}
					}
					line := fmt.Sprintf("live %d/%d points, %d sweeps active, %d workers, %d leases out, %.1f points/sec",
						st.Done, st.Total, active, st.Workers, st.ActiveLeases, st.PointsPerSec)
					if st.ETASeconds > 0 {
						line += fmt.Sprintf(", ETA %s", (time.Duration(st.ETASeconds * float64(time.Second))).Round(time.Second))
					}
					logger.Print(line)
				}
			}
		}()
	}

	select {
	case <-srv.Done():
	case <-ctx.Done():
		// Signalled: drain gracefully. stop() re-arms default signal
		// handling so a second SIGTERM force-kills a stuck drain.
		stop()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Drain(drainCtx)
		cancel()
		httpSrv.Close()
		st := srv.Status()
		switch {
		case err != nil:
			logger.Printf("drain timed out at %d/%d points (%d leases still out); checkpoints flushed",
				st.Done, st.Total, st.ActiveLeases)
		case *checkpointDir != "" || *checkpoint != "":
			logger.Printf("drained at %d/%d points; checkpoints flushed (restart resumes every sweep)", st.Done, st.Total)
		default:
			logger.Printf("drained at %d/%d points; no checkpointing configured, progress lost", st.Done, st.Total)
		}
		os.Exit(0)
	}

	// Boot sweep complete. Idle workers parked on /lease have already
	// been told. Linger briefly before closing the listener, so workers
	// still evaluating a stolen tail get their Done ack instead of a
	// dead socket.
	time.Sleep(min(max(*leaseTimeout/4, time.Second), 5*time.Second))
	httpSrv.Close()
	if err := dse.AtomicWriteFile(*out, func(w io.Writer) error { return srv.WriteFinal(w) }); err != nil {
		fatal(err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st = srv.Status()
	logger.Printf("sweep complete -> %s (%d points, %d duplicate lines absorbed, %d workers)",
		*out, st.Done, st.Duplicates, st.Workers)
	if *pareto || *hypervolume {
		results := srv.Results()
		if *pareto {
			front := dse.GroupedFront(results)
			fmt.Print(dse.FrontTable(results, front))
			fmt.Print(dse.Scatter(results, front, 72, 24))
		}
		if *hypervolume {
			fmt.Print(dse.HVTable(dse.Hypervolumes(results), false))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsed:", err)
	os.Exit(1)
}
