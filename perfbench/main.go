// Command perfbench is the repository benchmark. It runs one
// design-space-exploration workload through the public entry points of
// internal/dse and internal/coord, checks the output, and prints every
// metric by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation attached; with -trace 1 a separate traced run splits
// host time by layer. METRICS.md lists every metric and which layer
// should move it. Build and run it with run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload sweep_default --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep_default, sweep_tasklevel or farm_loopback")
	seed := fs.Uint64("seed", 0, "sweep seed (default: the workload's own)")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the timed run")
	dir := fs.String("workdir", ".bench_build/tmp", "scratch directory for farm checkpoint logs")
	passIdx := fs.Int("pass", -1, "run input N's pass alone and print it as JSON (the timed run's child processes)")
	setupOnly := fs.Bool("setup-only", false, "with -pass, run only the pass's set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if seedSet {
		w.seed = *seed
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *passIdx >= 0 {
		if err := onePass(w, *passIdx, *setupOnly, *dir, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	measure := time.Duration(*seconds) * time.Second
	var rep report
	var err error
	if *trace != 0 {
		rep, err = tracedRun(w, measure, *dir)
	} else {
		rep, err = timedRun(w, measure, *dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome: the check verdict, human-readable
// notes, the metrics of the final JSON line and further numbers that
// are printed only.
type report struct {
	correct   bool
	attempted int
	failed    int
	notes     []string
	metrics   []metric
	extra     []metric
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a named output check; any failure makes the run
// incorrect.
func (r *report) check(name string, ok bool) {
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
		r.correct = false
	}
	r.note("check %-28s %s", name, verdict)
}

func (r *report) print(w io.Writer) error {
	var b strings.Builder
	for _, n := range r.notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(&b, "%-32s %16.6f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	b.Write(data)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// extraSetups is how many set-up-only child passes a timed run adds to
// the set-up samples of its measured passes, so setup_s is a median of
// enough samples to repeat.
const extraSetups = 20

// pass runs one checked pass of the workload at the given sweep seed.
func pass(w workloadDef, seed uint64, dir string) (rep, error) {
	if w.farm {
		r, _, err := farmRep(w.spec, seed, dir, farmOpts{})
		return r, err
	}
	return sweepRep(w.spec, seed)
}

// onePass runs input j's pass, or only its set-up, in this process and
// prints the result as one JSON line for the parent run to read.
func onePass(w workloadDef, j int, setupOnly bool, dir string, stdout io.Writer) error {
	s := subSeed(w.seed, j)
	var r rep
	var err error
	switch {
	case setupOnly && w.farm:
		r.setup, err = farmSetup(w.spec, s, dir)
	case setupOnly:
		r.setup, err = sweepSetup(w.spec, s)
	default:
		r, err = pass(w, s, dir)
	}
	if err != nil {
		return err
	}
	data, err := json.Marshal(r.wire())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// childPass runs input j's pass in a fresh process of this program, the
// way a user runs one sweep (or one boot-mode farm) per process: no pass
// inherits another's heap, caches or parked goroutines.
func childPass(w workloadDef, j int, setupOnly bool, dir string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := []string{"--workload", w.name, "--seed", strconv.FormatUint(w.seed, 10), "--workdir", dir, "--pass", strconv.Itoa(j)}
	if setupOnly {
		args = append(args, "--setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep{}, fmt.Errorf("input %d pass: %w", j, err)
	}
	var rw repWire
	if err := json.Unmarshal(out, &rw); err != nil {
		return rep{}, fmt.Errorf("input %d pass: %w", j, err)
	}
	return rw.rep(), nil
}

// references computes, outside any timed region, the in-process file
// hash of each of the run's inputs: the bytes the farm must reproduce.
func references(w workloadDef) (map[uint64]string, error) {
	refs := map[uint64]string{}
	if !w.farm {
		return refs, nil
	}
	for j := 0; j < w.inputs; j++ {
		s := subSeed(w.seed, j)
		ref, err := referenceSHA(w.spec, s)
		if err != nil {
			return nil, err
		}
		refs[s] = ref
	}
	return refs, nil
}

// checkPasses records the output checks of a run's passes, pass i
// having run input i mod w.inputs, and notes each input's file hash
// and the run's result_sha256 over all of them.
func (r *report) checkPasses(w workloadDef, reps []rep, refs map[uint64]string) {
	sameSHA, sameRef := true, true
	all := sha256.New()
	for i, p := range reps {
		r.attempted += p.points
		r.failed += p.failed
		j := i % w.inputs
		if i < w.inputs {
			s := subSeed(w.seed, j)
			r.note("input %d: seed %d, %d points, sha256 %s", j, s, p.points, p.sha)
			io.WriteString(all, p.sha)
			if w.farm {
				sameRef = sameRef && p.sha == refs[s]
			}
		} else {
			sameSHA = sameSHA && p.sha == reps[j].sha
		}
	}
	r.note("result_sha256 %s", hexSum(all))
	r.check("points once, in order, no Err", r.failed == 0)
	r.check("result_sha256 repeats", sameSHA)
	if w.farm {
		r.check("WriteFinal equals dse.Engine", sameRef)
	}
}

// timedRun makes checked passes over the workload's inputs, cycling
// through them until every input has run and the measuring time is
// up, and reports the end-to-end metrics over all passes.
func timedRun(w workloadDef, measure time.Duration, dir string) (report, error) {
	rpt := report{correct: true}
	refs, err := references(w)
	if err != nil {
		return rpt, err
	}
	var reps []rep
	start := time.Now()
	for i := 0; i < w.inputs || time.Since(start) < measure; i++ {
		r, err := childPass(w, i%w.inputs, false, dir)
		if err != nil {
			return rpt, err
		}
		reps = append(reps, r)
	}
	// Throughput is the median pass, so a burst of host noise during
	// one pass does not move it. A sweep's memory moves in whole vp
	// platforms (a MiB of local store per core) with the sweep seed:
	// allocation jumps between a few levels, so it is reported for the
	// leanest input, which most runs share; the live heap steps by
	// single cores, so its mean over the passes repeats.
	var setups, pps []float64
	allocKB, peakMB := math.Inf(1), 0.0
	for _, r := range reps {
		pps = append(pps, r.pointsPerS())
		setups = append(setups, r.setup.Seconds())
		allocKB = min(allocKB, float64(r.alloc)/1024/float64(r.points))
		peakMB += float64(r.peak) / (1 << 20) / float64(len(reps))
	}
	for i := 0; i < extraSetups; i++ {
		r, err := childPass(w, i%w.inputs, true, dir)
		if err != nil {
			return rpt, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	rpt.note("workload %s seed %d: %d passes over %d inputs", w.name, w.seed, len(reps), w.inputs)
	for i, r := range reps {
		rpt.note("pass %d: input %d, setup %.6f s, run %.6f s, %.3f points/s, alloc %.3f KiB/point, peak heap %.3f MiB",
			i, i%w.inputs, r.setup.Seconds(), r.run.Seconds(), r.pointsPerS(), float64(r.alloc)/1024/float64(r.points), float64(r.peak)/(1<<20))
	}
	rpt.checkPasses(w, reps, refs)
	rpt.metrics = []metric{
		{"points_per_s", median(pps), "points/s"},
		{"setup_s", median(setups), "s"},
		{"alloc_kb_per_point", allocKB, "KiB"},
		{"peak_heap_mb", peakMB, "MiB"},
		{"sim_makespan_geomean_us", geomeanUS(reps[:w.inputs]), "sim_us"},
	}
	rpt.extra = []metric{
		{"point_error_ratio", ratio(float64(rpt.failed), float64(rpt.attempted)), "ratio"},
	}
	return rpt, nil
}
