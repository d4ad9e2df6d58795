package platform

import (
	"testing"

	"mpsockit/internal/noc"
	"mpsockit/internal/sim"
)

func testPlatform(n int) (*sim.Kernel, *Platform) {
	k := sim.NewKernel()
	return k, NewHomogeneous(k, n, 1_000_000_000, noc.MeshFor(k, n))
}

func TestHomogeneousPlatform(t *testing.T) {
	_, p := testPlatform(8)
	if !homogeneous(p) {
		t.Fatal("homogeneous platform not recognized")
	}
	if len(p.Cores) != 8 {
		t.Fatalf("core count %d, want 8", len(p.Cores))
	}
	for _, c := range p.Cores {
		if c.Class != RISC {
			t.Fatalf("core %d class %v, want RISC", c.ID, c.Class)
		}
		if !c.SpaceShared {
			t.Fatal("homogeneous manycore cores should default to space-shared")
		}
	}
}

func TestCycleTiming(t *testing.T) {
	_, p := testPlatform(1)
	c := p.Core(0)
	if c.Hz() != 1_000_000_000 {
		t.Fatalf("nominal Hz = %d", c.Hz())
	}
	if c.Cycles(1) != sim.Nanosecond {
		t.Fatalf("cycle period %v, want 1ns at 1GHz", c.Cycles(1))
	}
	if c.Cycles(1000) != sim.Microsecond {
		t.Fatalf("1000 cycles = %v, want 1us", c.Cycles(1000))
	}
	if c.TimeToCycles(5*sim.Microsecond) != 5000 {
		t.Fatalf("TimeToCycles wrong: %d", c.TimeToCycles(5*sim.Microsecond))
	}
}

func TestDVFSBoost(t *testing.T) {
	_, p := testPlatform(1)
	c := p.Core(0)
	base := c.Hz()
	factor := c.Boost()
	if c.Hz() <= base {
		t.Fatal("boost did not raise frequency")
	}
	if factor != float64(c.Hz())/float64(base) {
		t.Fatalf("boost factor %g inconsistent", factor)
	}
	// Boosted core executes the same cycles in less time.
	if c.Cycles(1000) >= sim.Microsecond {
		t.Fatal("boosted core not faster")
	}
	c.Unboost()
	if c.Hz() != base {
		t.Fatalf("unboost returned %d, want %d", c.Hz(), base)
	}
	if c.FreqSwitches != 2 {
		t.Fatalf("freq switches = %d, want 2", c.FreqSwitches)
	}
}

func TestSetLevelBounds(t *testing.T) {
	_, p := testPlatform(1)
	c := p.Core(0)
	if err := c.SetLevel(99); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := c.SetLevel(0); err != nil {
		t.Fatalf("valid level rejected: %v", err)
	}
}

func TestCellLikeShape(t *testing.T) {
	k := sim.NewKernel()
	p := NewCellLike(k, 6, noc.MeshFor(k, 7))
	if homogeneous(p) {
		t.Fatal("cell-like platform should be heterogeneous")
	}
	if len(coresOf(p, CTRL)) != 1 {
		t.Fatal("want exactly one PPE-like control core")
	}
	if len(coresOf(p, DSP)) != 6 {
		t.Fatalf("want 6 SPE-like cores, got %d", len(coresOf(p, DSP)))
	}
	// SPE local stores must exist for the CIC translator's capacity checks.
	for _, c := range coresOf(p, DSP) {
		if c.L1Bytes != 256<<10 {
			t.Fatalf("spe local store %d bytes, want 256K", c.L1Bytes)
		}
	}
}

func TestMPCoreLikeShape(t *testing.T) {
	k := sim.NewKernel()
	p := NewMPCoreLike(k, 4, noc.DefaultBus(k))
	if !homogeneous(p) {
		t.Fatal("MPCore-like platform should be homogeneous")
	}
	if p.SharedBytes == 0 {
		t.Fatal("SMP platform needs shared memory")
	}
}

func TestWirelessTerminalClasses(t *testing.T) {
	k := sim.NewKernel()
	p := NewWirelessTerminal(k, noc.MeshFor(k, 6))
	classes := p.Classes()
	if len(classes) != 4 {
		t.Fatalf("want 4 PE classes, got %v", classes)
	}
}

func TestParsePEClass(t *testing.T) {
	for _, c := range []PEClass{RISC, DSP, VLIW, ACC, CTRL} {
		got, err := ParsePEClass(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip failed for %v: %v %v", c, got, err)
		}
	}
	if _, err := ParsePEClass("GPU"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestPlatformString(t *testing.T) {
	k := sim.NewKernel()
	p := NewCellLike(k, 2, noc.MeshFor(k, 3))
	s := p.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

// homogeneous reports whether all cores share one PE class — the
// hardware shape section II argues scales (near) linearly.
func homogeneous(p *Platform) bool {
	for _, c := range p.Cores {
		if c.Class != p.Cores[0].Class {
			return false
		}
	}
	return true
}

// coresOf returns the cores of the given class, in ID order.
func coresOf(p *Platform, class PEClass) []*Core {
	var out []*Core
	for _, c := range p.Cores {
		if c.Class == class {
			out = append(out, c)
		}
	}
	return out
}
