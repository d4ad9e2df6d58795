package platform

import (
	"fmt"
	"strconv"
	"strings"

	"mpsockit/internal/sim"
)

// A core-mix spec describes an arbitrary heterogeneous platform as a
// '+'-separated list of core groups, each "NxCLASS" with an optional
// "@MHZ" clock override:
//
//	mix   = group , { "+" , group } ;
//	group = count , "x" , class , [ "@" , mhz ] ;
//	class = "risc" | "dsp" | "vliw" | "acc" | "ctrl" ;
//	count = integer (1..64) ;  mhz = integer (1..1000000) ;
//
// "2xrisc+4xdsp+1xvliw" is two RISC control cores, four DSPs and one
// VLIW media engine at their class-default clocks; "8xrisc@600" is
// eight 600 MHz RISC cores. Per-class default clocks are chosen so
// the named platform builders are reproducible as mixes in every
// execution-relevant respect — class, clock and DVFS table per core,
// in order — e.g. "8xrisc" matches NewHomogeneous(8) exactly and
// "1xctrl+4xdsp@3200" matches NewCellLike(4)'s timing. Local-memory
// defaults are per class, so memory-derived figures (the DSE area
// proxy) can differ from a preset that sizes memories per role (the
// Cell-like 256 KiB SPE local store, the MPCore's L2-less cores).

// MixGroup is one parsed group of a core-mix spec: N identical cores
// of one PE class at a fixed clock.
type MixGroup struct {
	// N is the number of cores in the group (1..64).
	N int `json:"n"`
	// Class is the group's PE class.
	Class PEClass `json:"class"`
	// MHz is the group's clock in MHz. ParseMix resolves the
	// class-default clock at parse time, so a stored group is always
	// concrete.
	MHz int `json:"mhz"`
}

// classDefault holds the per-class core parameters a mix group gets
// when the spec does not override them. Clocks and memories follow
// the named builders: RISC matches the homogeneous manycore core,
// DSP/VLIW/ACC the wireless-terminal engines, CTRL the Cell-like
// host core.
var classDefault = map[PEClass]struct {
	mhz    int
	l1, l2 int
}{
	RISC: {mhz: 1000, l1: 32 << 10, l2: 256 << 10},
	DSP:  {mhz: 600, l1: 64 << 10},
	VLIW: {mhz: 300, l1: 128 << 10},
	ACC:  {mhz: 200, l1: 16 << 10},
	CTRL: {mhz: 3200, l1: 32 << 10, l2: 512 << 10},
}

// MaxMixCores bounds the total core count of a parsed mix, matching
// the named platform tokens' 64-core ceiling.
const MaxMixCores = 64

// ParseMix parses a core-mix spec ("2xrisc+4xdsp@3200") into its
// groups. Group order is preserved — it determines core IDs — and
// class-default clocks are resolved, so the result round-trips
// through FormatMix.
func ParseMix(spec string) ([]MixGroup, error) {
	if spec == "" {
		return nil, fmt.Errorf("platform: empty core-mix spec")
	}
	var groups []MixGroup
	total := 0
	for _, tok := range strings.Split(spec, "+") {
		ns, rest, ok := strings.Cut(tok, "x")
		if !ok {
			return nil, fmt.Errorf("platform: bad core-mix group %q (want e.g. 2xrisc)", tok)
		}
		n, err := strconv.Atoi(ns)
		if err != nil || n < 1 || n > MaxMixCores {
			return nil, fmt.Errorf("platform: bad core count in mix group %q (want 1..%d)", tok, MaxMixCores)
		}
		name, mhzs, hasMHz := strings.Cut(rest, "@")
		cl, err := ParsePEClass(strings.ToUpper(name))
		if err != nil {
			return nil, fmt.Errorf("platform: unknown PE class %q in mix group %q", name, tok)
		}
		mhz := classDefault[cl].mhz
		if hasMHz {
			mhz, err = strconv.Atoi(mhzs)
			if err != nil || mhz < 1 || mhz > 1_000_000 {
				return nil, fmt.Errorf("platform: bad clock in mix group %q (want MHz 1..1000000)", tok)
			}
		}
		total += n
		if total > MaxMixCores {
			return nil, fmt.Errorf("platform: core mix %q exceeds %d cores", spec, MaxMixCores)
		}
		groups = append(groups, MixGroup{N: n, Class: cl, MHz: mhz})
	}
	return groups, nil
}

// FormatMix renders groups back to spec form, omitting "@MHZ" for
// class-default clocks. ParseMix(FormatMix(gs)) reproduces gs, so the
// rendering is the canonical token for headers and logs.
func FormatMix(groups []MixGroup) string {
	var b []byte
	for i, g := range groups {
		if i > 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(g.N), 10)
		b = append(b, 'x')
		// Class names are ASCII: lower-case them byte by byte.
		for _, c := range []byte(g.Class.String()) {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b = append(b, c)
		}
		if g.MHz != classDefault[g.Class].mhz {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(g.MHz), 10)
		}
	}
	return string(b)
}

// MixSpecs expands parsed groups into the CoreSpec list New consumes,
// applying per-class default local memories.
func MixSpecs(groups []MixGroup) []CoreSpec {
	var specs []CoreSpec
	counts := map[PEClass]int{}
	for _, g := range groups {
		def := classDefault[g.Class]
		for i := 0; i < g.N; i++ {
			specs = append(specs, CoreSpec{
				Name:    fmt.Sprintf("%s%d", strings.ToLower(g.Class.String()), counts[g.Class]),
				Class:   g.Class,
				Hz:      int64(g.MHz) * 1_000_000,
				L1Bytes: def.l1,
				L2Bytes: def.l2,
			})
			counts[g.Class]++
		}
	}
	return specs
}

// MixCoreCount sums the cores of a parsed mix.
func MixCoreCount(groups []MixGroup) int {
	n := 0
	for _, g := range groups {
		n += g.N
	}
	return n
}

// NewMix builds the platform a core-mix spec describes: cores in
// group order with class-default memories and DVFS tables (half,
// nominal, double — the same shape the named builders use). An
// all-RISC mix additionally joins the space-shared pool, matching
// NewHomogeneous.
func NewMix(k *sim.Kernel, groups []MixGroup, fabric Fabric) *Platform {
	p := New(k, FormatMix(groups), MixSpecs(groups), fabric)
	homogRISC := true
	for _, g := range groups {
		if g.Class != RISC {
			homogRISC = false
		}
	}
	if homogRISC {
		for _, c := range p.Cores {
			c.SpaceShared = true
		}
	}
	return p
}
