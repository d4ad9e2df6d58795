package workload

import (
	"testing"

	"mpsockit/internal/cir"
)

func TestDCTConstantBlock(t *testing.T) {
	var blk Block8
	for i := range blk {
		blk[i] = 100
	}
	d := DCT8(&blk)
	// A constant block concentrates energy in DC; AC terms ~0.
	if d[0] == 0 {
		t.Fatal("DC term vanished")
	}
	for i := 1; i < 64; i++ {
		if abs32(d[i]) > abs32(d[0])/8 {
			t.Fatalf("AC[%d] = %d too large vs DC %d", i, d[i], d[0])
		}
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestDCTEnergyFollowsFrequency(t *testing.T) {
	// A horizontal gradient has most energy in the first AC column
	// coefficient, none in high verticals.
	var blk Block8
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			blk[y*8+x] = int32(x * 16)
		}
	}
	d := DCT8(&blk)
	if abs32(d[1]) <= abs32(d[8]) {
		t.Fatalf("horizontal gradient energy wrong: d[1]=%d d[8]=%d", d[1], d[8])
	}
}

func TestQuantizeMonotone(t *testing.T) {
	var blk Block8
	for i := range blk {
		blk[i] = 1000
	}
	coarse := Quantize(&blk, 1)
	fine := Quantize(&blk, 8)
	for i := range blk {
		if abs32(fine[i]) < abs32(coarse[i]) {
			t.Fatalf("finer quality must keep more signal at %d", i)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	var blk Block8
	for i := range blk {
		blk[i] = int32(i)
	}
	z := Zigzag(&blk)
	seen := map[int32]bool{}
	for _, v := range z {
		if seen[v] {
			t.Fatalf("zigzag duplicated %d", v)
		}
		seen[v] = true
	}
	if z[0] != 0 || z[1] != 1 || z[2] != 8 {
		t.Fatalf("zigzag head wrong: %v", z[:3])
	}
}

func TestRLERoundTrippable(t *testing.T) {
	blk := Block8{5, 0, 0, -3, 0, 0, 0, 1}
	out := RLE(&blk, nil)
	// (0,5) (2,-3) (3,1) then 56 zeros -> terminator.
	want := []int32{0, 5, 2, -3, 3, 1, 0, 0}
	if len(out) != len(want) {
		t.Fatalf("rle = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("rle = %v, want %v", out, want)
		}
	}
}

func TestEncodeJPEGDeterministic(t *testing.T) {
	img := TestImage(32, 32, 7)
	a := EncodeJPEG(img, 32, 32, 2)
	b := EncodeJPEG(img, 32, 32, 2)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoder not deterministic")
		}
	}
	// Higher quality keeps more coefficients.
	hq := EncodeJPEG(img, 32, 32, 8)
	if len(hq) <= len(a) {
		t.Fatalf("quality 8 stream (%d) not longer than quality 2 (%d)", len(hq), len(a))
	}
}

func TestJPEGSourceCIRRuns(t *testing.T) {
	prog, err := cir.Parse(JPEGSourceCIR)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cir.NewInterp(prog)
	if err != nil {
		t.Fatal(err)
	}
	img := TestImage(16, 16, 3)
	vals := make([]int64, 256)
	for i, v := range img {
		vals[i] = int64(v)
	}
	if err := in.SetGlobalArray("input", vals); err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	n, _ := in.Global("npacked")
	if n <= 0 || n > 256 {
		t.Fatalf("npacked = %d", n)
	}
}

func TestMotionSearchFindsShift(t *testing.T) {
	frames := SyntheticVideo(64, 48, 3, 9)
	// Frame 1 is frame 0 shifted by (1,0) plus noise: the search must
	// find a small vector with low SAD.
	dx, dy, sad := MotionSearch(&frames[1], &frames[0], 16, 16)
	if dx < -4 || dx > 4 || dy < -4 || dy > 4 {
		t.Fatalf("mv out of range: (%d,%d)", dx, dy)
	}
	zero := SAD(&frames[1], &frames[0], 16, 16, 16, 16)
	if sad > zero {
		t.Fatalf("search result (%d) worse than zero-mv (%d)", sad, zero)
	}
}

func TestHadamardEnergyCompaction(t *testing.T) {
	flat := make([]int32, 16)
	for i := range flat {
		flat[i] = 8
	}
	Hadamard4(flat)
	if flat[0] == 0 {
		t.Fatal("DC vanished")
	}
	for i := 1; i < 16; i++ {
		if flat[i] != 0 {
			t.Fatalf("flat block has AC energy at %d: %v", i, flat)
		}
	}
}

func TestEncodeVideoDeterministic(t *testing.T) {
	frames := SyntheticVideo(64, 48, 3, 11)
	a := EncodeVideo(frames, 3)
	b := EncodeVideo(frames, 3)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("video encoder not deterministic")
		}
	}
}

func TestCarRadioGraphConsistent(t *testing.T) {
	g := CarRadioGraph()
	rv, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	// sample fires 4x per fir firing; stereo has 2 phases per demod pair.
	if rv[0] != 8 || rv[1] != 2 || rv[2] != 2 || rv[3] != 1 || rv[4] != 2 {
		t.Fatalf("rv = %v", rv)
	}
	caps, err := g.MinBufferSizes(300_000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dataflow := caps; len(dataflow) != len(g.Edges) {
		t.Fatalf("caps = %v", caps)
	}
}
