package dse

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"mpsockit/internal/mem"
	"mpsockit/internal/platform"
	"mpsockit/internal/xrand"
)

// WorkloadSpec names one workload dimension value.
type WorkloadSpec struct {
	Kind string         // jpeg | h264 | carradio | synth | jobs | multi
	N    int            // synth task count / jobs job count
	Apps []WorkloadSpec // constituent apps of a multi workload
}

// String renders the workload token ("jpeg", "synth16",
// "multi:jpeg+carradio", …).
func (w WorkloadSpec) String() string {
	if w.Kind == "multi" {
		var b strings.Builder
		b.WriteString("multi:")
		for i, a := range w.Apps {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(a.String())
		}
		return b.String()
	}
	if w.N > 0 {
		return w.Kind + strconv.Itoa(w.N)
	}
	return w.Kind
}

// FidelitySpec names one simulation-fidelity dimension value.
type FidelitySpec struct {
	Kind       string // mvp | pipe | vp | cal
	Iterations int    // pipe
	Quantum    int    // vp, cal
	Probes     int    // cal: vp probe mappings per (platform, workload) group
}

// String renders the fidelity token ("mvp", "pipe8", "vp64", "cal:4").
func (f FidelitySpec) String() string {
	switch f.Kind {
	case "pipe":
		return "pipe" + strconv.Itoa(f.Iterations)
	case "vp":
		return "vp" + strconv.Itoa(f.Quantum)
	case "cal":
		return "cal:" + strconv.Itoa(f.Probes)
	}
	return f.Kind
}

// Sweep is a design-space description: the cross product of its
// dimensions expands to the point list. Platform × DVFS × workload ×
// heuristic × fidelity; jobs workloads collapse the heuristic and
// fidelity axes (the RTOS schedules online).
type Sweep struct {
	Seed       uint64
	Platforms  []PlatSpec // Fabric/DVFS fields ignored; crossed below
	Fabrics    []string
	DVFS       []int
	Workloads  []WorkloadSpec
	Heuristics []string
	Fidelities []FidelitySpec
	// Mems is the memory-subsystem contention axis (mem= tokens).
	// Empty means ideal memory only — identical to a mem=ideal axis,
	// because the ideal spec canonicalizes to an absent Point field.
	Mems []mem.Spec
}

// seedFor derives the deterministic per-point (or per-workload) seed
// stream: mixing the sweep seed with a label through SplitMix64 keeps
// streams independent.
func seedFor(seed uint64, label string, n int) uint64 {
	h := seed
	for _, b := range []byte(label) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= uint64(n) * 0x9e3779b97f4a7c15
	return xrand.New(h).Uint64()
}

// Len returns the number of points Points expands the sweep to,
// computed from the axis lengths without expanding: every (platform,
// fabric, DVFS, memory) combination contributes one point per jobs
// workload and heuristics × fidelities points per other workload.
// Unset axes count as their one default value; a count beyond
// math.MaxInt saturates there.
func (s *Sweep) Len() int {
	perCombo := 0
	for _, wl := range s.Workloads {
		if wl.Kind == "jobs" {
			perCombo = addSat(perCombo, 1)
		} else {
			perCombo = addSat(perCombo, mulSat(max1(len(s.Heuristics)), max1(len(s.Fidelities))))
		}
	}
	n := perCombo
	for _, axis := range [...]int{len(s.Platforms), max1(len(s.Fabrics)), max1(len(s.DVFS)), max1(len(s.Mems))} {
		n = mulSat(n, axis)
	}
	return n
}

// max1 floors an axis length at its defaulted size.
func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// addSat and mulSat add and multiply non-negative ints, saturating at
// math.MaxInt.
func addSat(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// Points expands the sweep into its design points. Expansion order is
// deterministic (platform-major), point IDs are sequential, and every
// point's seeds derive from Sweep.Seed alone — the same sweep expands
// to byte-identical points every time.
//
// The mvp, vp and cal points of one (platform, fabric, DVFS, memory,
// workload, heuristic) group are fidelity twins: they take the group's
// mapping seed, the point seed of its first non-pipe fidelity, so every
// tier measures the one mapping and a worker searches it once (the
// Engine keeps a group on one worker, whose evaluator keeps its last
// mapping). Pipe points keep their own
// seed: they optimize the throughput objective, a different search.
//
// Every value that depends on one dimension value alone (memory token,
// workload token, size and seed, a multi workload's Apps) is computed
// once before the loops; the innermost loop only stamps IDs, point
// seeds and cal probes. The points of one multi workload share one
// read-only Apps slice, its capacity cut to its length so an append
// copies instead of writing into a sibling's.
func (s *Sweep) Points() ([]Point, error) {
	if len(s.Platforms) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("dse: sweep needs at least one platform and one workload")
	}
	fabrics := s.Fabrics
	if len(fabrics) == 0 {
		fabrics = []string{"mesh"}
	}
	dvfs := s.DVFS
	if len(dvfs) == 0 {
		dvfs = []int{1}
	}
	heuristics := s.Heuristics
	if len(heuristics) == 0 {
		heuristics = []string{"list"}
	}
	fidelities := s.Fidelities
	if len(fidelities) == 0 {
		fidelities = []FidelitySpec{{Kind: "mvp"}}
	}
	mems := s.Mems
	if len(mems) == 0 {
		mems = []mem.Spec{{Kind: "ideal"}}
	}
	// Small axes stay on the stack.
	var memBuf [4]string
	var wlBuf [8]expandedWorkload
	memToks, wls := memBuf[:0], wlBuf[:0]
	for _, mm := range mems {
		memToks = append(memToks, mm.Token())
	}
	for _, wl := range s.Workloads {
		wls = append(wls, s.expandWorkload(wl))
	}
	jobsHeurs, jobsFids := []string{"-"}, []FidelitySpec{{Kind: "rtos"}}
	points := make([]Point, 0, s.Len())
	for _, plat := range s.Platforms {
		for _, fab := range fabrics {
			for _, d := range dvfs {
				for _, memTok := range memToks {
					ps := plat
					ps.Fabric = fab
					ps.DVFS = d
					ps.Mem = memTok
					for _, wl := range wls {
						heurs, fids := heuristics, fidelities
						if wl.kind == "jobs" {
							heurs, fids = jobsHeurs, jobsFids
						}
						twin := firstTwin(fids)
						for hi, h := range heurs {
							for fi, f := range fids {
								id := len(points)
								// groupID is the ID of the group's first
								// twin, whose point seed the twins share.
								groupID := id
								if f.Kind != "pipe" {
									groupID = id - fi + twin
								}
								p := Point{
									ID:           id,
									Seed:         seedFor(s.Seed, "point", groupID),
									Plat:         ps,
									Workload:     wl.token,
									N:            wl.n,
									WorkloadSeed: wl.seed,
									Apps:         wl.apps,
									Heuristic:    h,
									Fidelity:     f.Kind,
									Iterations:   f.Iterations,
									Quantum:      f.Quantum,
								}
								if f.Kind == "cal" {
									if p.Quantum < 1 {
										p.Quantum = calProbeQuantum
									}
									// The group's probes are its first K sibling
									// mappings (same plat/fab/dvfs/wl, the other
									// heuristics of this fidelity). Sibling IDs
									// differ by the fidelity stride, so each
									// probe's mapping seed — its sibling's group
									// seed — is recomputable here and identical
									// for every group member.
									k := f.Probes
									if k > len(heurs) {
										k = len(heurs)
									}
									for m := 0; m < k; m++ {
										pid := groupID - (hi-m)*len(fids)
										p.CalProbes = append(p.CalProbes, CalProbe{
											Heur: heurs[m],
											Seed: seedFor(s.Seed, "point", pid),
										})
									}
								}
								points = append(points, p)
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// expandedWorkload is a workload dimension value as its points carry
// it.
type expandedWorkload struct {
	kind  string // the WorkloadSpec kind ("jobs" collapses the axes)
	token string // Point.Workload
	n     int
	seed  uint64
	apps  []AppRef // shared by the workload's points; len == cap
}

// expandWorkload computes what every point of workload wl carries. A
// multi workload's token is its identity, and each constituent derives
// the same instance seed its single-workload token would, so multi
// points compose the exact instances the single points evaluate.
func (s *Sweep) expandWorkload(wl WorkloadSpec) expandedWorkload {
	if wl.Kind != "multi" {
		return expandedWorkload{kind: wl.Kind, token: wl.Kind, n: wl.N, seed: seedFor(s.Seed, "wl/"+wl.Kind, wl.N)}
	}
	tok := wl.String()
	var apps []AppRef // nil for no apps, as the points always carried
	for _, a := range wl.Apps {
		apps = append(apps, AppRef{Kind: a.Kind, N: a.N, Seed: seedFor(s.Seed, "wl/"+a.Kind, a.N)})
	}
	apps = slices.Clip(apps)
	return expandedWorkload{kind: wl.Kind, token: tok, seed: seedFor(s.Seed, "wl/"+tok, 0), apps: apps}
}

// firstTwin returns the index of the first non-pipe fidelity in fids,
// whose point seed the group's mvp, vp and cal points share, or 0 when
// every fidelity is pipe (and none shares).
func firstTwin(fids []FidelitySpec) int {
	for i, f := range fids {
		if f.Kind != "pipe" {
			return i
		}
	}
	return 0
}

// ParseSweep builds a sweep from a compact spec string. Named presets:
//
//	smoke    ~20 points (CI-sized)
//	default  ~500 points over 4 platform families × 2 fabrics ×
//	         3 DVFS points × 5 workloads × 2 heuristics × mvp+vp
//
// or a ';'-separated dimension list:
//
//	plat=homog8,wireless,celllike4,mpcore2;fab=mesh,bus;dvfs=0,1,2;
//	wl=jpeg,h264,carradio,synth16,jobs32;heur=list,anneal,exhaustive;
//	fid=mvp,pipe8,vp64;mem=ideal,bank:4x2,bw:8
//
// The plat dimension also accepts custom core mixes
// ("2xrisc+4xdsp@3200") and the wl dimension multi-application
// scenarios ("multi:jpeg+carradio+synth8"); the full grammar is in
// the package comment. Unspecified dimensions default to fab=mesh,
// dvfs=1, heur=list, fid=mvp, mem=ideal. A token repeated within a
// dimension, compared in canonical form ("synth08" is "synth8",
// "dvfs=01" is "dvfs=1"), is an error: it would only expand to
// duplicate points. So are two cal:K tokens whose probe counts, each
// clamped to the heuristic count, are equal ("fid=cal:32,cal:1" with
// one heuristic).
func ParseSweep(spec string, seed uint64) (*Sweep, error) {
	s := &Sweep{Seed: seed}
	switch spec {
	case "smoke":
		s.Platforms = []PlatSpec{{Kind: "homog", Cores: 2}, {Kind: "homog", Cores: 4}, {Kind: "wireless"}}
		s.Workloads = []WorkloadSpec{{Kind: "jpeg"}, {Kind: "carradio"}, {Kind: "synth", N: 12}}
		s.Heuristics = []string{"list", "anneal"}
		s.Fidelities = []FidelitySpec{{Kind: "mvp"}}
		return s, nil
	case "default", "":
		s.Platforms = []PlatSpec{
			{Kind: "homog", Cores: 2}, {Kind: "homog", Cores: 4},
			{Kind: "homog", Cores: 8}, {Kind: "homog", Cores: 16},
			{Kind: "wireless"}, {Kind: "celllike", Cores: 4},
		}
		s.Fabrics = []string{"mesh", "bus"}
		s.DVFS = []int{0, 1, 2}
		s.Workloads = []WorkloadSpec{
			{Kind: "jpeg"}, {Kind: "h264"}, {Kind: "carradio"},
			{Kind: "synth", N: 16}, {Kind: "jobs", N: 32},
		}
		s.Heuristics = []string{"list", "anneal"}
		s.Fidelities = []FidelitySpec{{Kind: "mvp"}, {Kind: "vp", Quantum: 64}}
		return s, nil
	}
	// seen holds every accepted token by dimension in canonical form: a
	// repeat would only expand to duplicate points.
	seen := make(map[dimToken]bool, 32)
	for _, dim := range strings.Split(spec, ";") {
		dim = strings.TrimSpace(dim)
		if dim == "" {
			continue
		}
		key, vals, ok := strings.Cut(dim, "=")
		if !ok {
			return nil, fmt.Errorf("dse: bad sweep dimension %q (want key=v1,v2,...)", dim)
		}
		for _, val := range strings.Split(vals, ",") {
			val = strings.TrimSpace(val)
			if val == "" {
				continue
			}
			canon := val
			switch key {
			case "plat":
				ps, err := parsePlat(val)
				if err != nil {
					return nil, err
				}
				s.Platforms = append(s.Platforms, ps)
				canon = ps.Token()
			case "fab":
				if val != "mesh" && val != "bus" {
					return nil, fmt.Errorf("dse: unknown fabric %q", val)
				}
				s.Fabrics = append(s.Fabrics, val)
			case "dvfs":
				d, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("dse: bad dvfs level %q", val)
				}
				s.DVFS = append(s.DVFS, d)
				canon = strconv.Itoa(d)
			case "wl":
				w, err := parseWorkload(val)
				if err != nil {
					return nil, err
				}
				s.Workloads = append(s.Workloads, w)
				canon = w.String()
			case "heur":
				if val != "list" && val != "anneal" && val != "exhaustive" {
					return nil, fmt.Errorf("dse: unknown heuristic %q", val)
				}
				s.Heuristics = append(s.Heuristics, val)
			case "fid":
				f, err := parseFidelity(val)
				if err != nil {
					return nil, err
				}
				s.Fidelities = append(s.Fidelities, f)
				canon = f.String()
			case "mem":
				m, err := mem.ParseSpec(val)
				if err != nil {
					return nil, fmt.Errorf("dse: %w", err)
				}
				s.Mems = append(s.Mems, m)
				canon = m.String()
			default:
				return nil, fmt.Errorf("dse: unknown sweep dimension %q", key)
			}
			if seen[dimToken{key, canon}] {
				return nil, fmt.Errorf("dse: sweep dimension %s repeats token %q (%s=%s)", key, val, key, canon)
			}
			seen[dimToken{key, canon}] = true
		}
	}
	// Points probes min(K, heuristics) siblings, so cal tokens that
	// agree on that count expand to identical points.
	heurs := max1(len(s.Heuristics))
	for i, f := range s.Fidelities {
		for _, g := range s.Fidelities[:i] {
			if f.Kind == "cal" && g.Kind == "cal" && min(f.Probes, heurs) == min(g.Probes, heurs) {
				return nil, fmt.Errorf("dse: sweep dimension fid: tokens %q and %q both probe %d mappings with %d heuristics (duplicate points)",
					g.String(), f.String(), min(f.Probes, heurs), heurs)
			}
		}
	}
	if len(s.Platforms) == 0 {
		s.Platforms = []PlatSpec{{Kind: "homog", Cores: 4}, {Kind: "wireless"}}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []WorkloadSpec{{Kind: "jpeg"}}
	}
	return s, nil
}

// dimToken is one dimension value in canonical form: the dimension key
// and the token its value renders to.
type dimToken struct{ key, tok string }

// parsePlat parses a platform token: homogN, mpcoreN, celllikeN (N =
// SPE count), wireless, or a digit-leading custom core mix
// ("2xrisc+4xdsp@3200", see platform.ParseMix).
func parsePlat(tok string) (PlatSpec, error) {
	if tok == "wireless" {
		return PlatSpec{Kind: "wireless"}, nil
	}
	if tok != "" && tok[0] >= '0' && tok[0] <= '9' {
		mix, err := platform.ParseMix(tok)
		if err != nil {
			return PlatSpec{}, fmt.Errorf("dse: bad platform token %q: %w", tok, err)
		}
		return PlatSpec{Kind: "custom", Mix: mix}, nil
	}
	for _, kind := range []string{"homog", "mpcore", "celllike"} {
		if rest, ok := strings.CutPrefix(tok, kind); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 || n > 64 {
				return PlatSpec{}, fmt.Errorf("dse: bad platform token %q (want e.g. %s4)", tok, kind)
			}
			return PlatSpec{Kind: kind, Cores: n}, nil
		}
	}
	return PlatSpec{}, fmt.Errorf("dse: unknown platform %q", tok)
}

// parseWorkload parses a workload token: jpeg, h264, carradio,
// synthN, jobsN, or a multi:a+b+c multi-application scenario over the
// task-graph workloads.
func parseWorkload(tok string) (WorkloadSpec, error) {
	if rest, ok := strings.CutPrefix(tok, "multi:"); ok {
		w := WorkloadSpec{Kind: "multi"}
		for _, app := range strings.Split(rest, "+") {
			a, err := parseWorkload(app)
			if err != nil {
				return WorkloadSpec{}, fmt.Errorf("dse: bad multi workload %q: %w", tok, err)
			}
			switch a.Kind {
			case "jobs", "multi":
				// The RTOS job bag has no task graph to compose, and
				// scenarios do not nest.
				return WorkloadSpec{}, fmt.Errorf("dse: workload %q cannot appear in a multi scenario", app)
			}
			w.Apps = append(w.Apps, a)
		}
		if len(w.Apps) == 0 {
			return WorkloadSpec{}, fmt.Errorf("dse: empty multi workload %q", tok)
		}
		if len(w.Apps) > 8 {
			return WorkloadSpec{}, fmt.Errorf("dse: multi workload %q exceeds 8 apps", tok)
		}
		return w, nil
	}
	switch tok {
	case "jpeg", "h264", "carradio":
		return WorkloadSpec{Kind: tok}, nil
	}
	for _, kind := range []string{"synth", "jobs"} {
		if rest, ok := strings.CutPrefix(tok, kind); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 2 || n > 512 {
				return WorkloadSpec{}, fmt.Errorf("dse: bad workload token %q (want e.g. %s16)", tok, kind)
			}
			return WorkloadSpec{Kind: kind, N: n}, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("dse: unknown workload %q", tok)
}

// maxPipeIterations caps the pipeN frame count. Pipelined execution
// work grows linearly with N, so the cap bounds what one fidelity
// token can demand of a worker, the way cal:K bounds probe fan-out.
const maxPipeIterations = 1024

// parseFidelity parses a fidelity token: mvp, pipeN (N pipelined
// iterations, 1 <= N <= maxPipeIterations), vpN (N-instruction
// temporal-decoupling quantum) or cal:K.
func parseFidelity(tok string) (FidelitySpec, error) {
	if tok == "mvp" {
		return FidelitySpec{Kind: "mvp"}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "pipe"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 || n > maxPipeIterations {
			return FidelitySpec{}, fmt.Errorf("dse: bad fidelity token %q (want pipeN, 1 <= N <= %d)", tok, maxPipeIterations)
		}
		return FidelitySpec{Kind: "pipe", Iterations: n}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "vp"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return FidelitySpec{}, fmt.Errorf("dse: bad fidelity token %q (want e.g. vp64)", tok)
		}
		return FidelitySpec{Kind: "vp", Quantum: n}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "cal:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 || n > 32 {
			return FidelitySpec{}, fmt.Errorf("dse: bad fidelity token %q (want cal:K, 1 <= K <= 32)", tok)
		}
		// Probe measurements run on the decoupled vp at the default
		// sweep quantum; precise probing is what fid=vp1 is for.
		return FidelitySpec{Kind: "cal", Probes: n, Quantum: calProbeQuantum}, nil
	}
	return FidelitySpec{}, fmt.Errorf("dse: unknown fidelity %q", tok)
}

// calProbeQuantum is the temporal-decoupling quantum calibration
// probes are measured at — the default sweep's vp quantum, so a cal
// probe measures exactly what a fid=vp64 point of its mapping does.
const calProbeQuantum = 64
