package workload

import (
	"fmt"

	"mpsockit/internal/cic"
	"mpsockit/internal/xrand"
)

// The H.264-flavoured encoder: per 16x16 macroblock, integer motion
// search against the previous frame (±4 full-pel SAD), residual
// computation, a 4x4 Hadamard-style transform, quantization and
// run-length entropy coding. This is the workload shape of the
// paper's reference [7] ("Automatic H.264 Encoder Synthesis for the
// Cell Processor from a Target Independent Specification") at reduced
// scale.

// MB is a 16x16 macroblock.
const MB = 16

// Frame is one w*h luma frame.
type Frame struct {
	W, H int
	Pix  []int32
}

// SyntheticVideo produces n deterministic frames with global motion
// so the motion search has something to find.
func SyntheticVideo(w, h, n int, seed uint64) []Frame {
	r := xrand.New(seed)
	base := TestImage(w, h, seed)
	frames := make([]Frame, n)
	for f := 0; f < n; f++ {
		pix := make([]int32, w*h)
		dx, dy := f%3, (f/2)%3
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sx, sy := (x+dx)%w, (y+dy)%h
				v := base[sy*w+sx] + int32(r.Intn(8)) - 4
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				pix[y*w+x] = v
			}
		}
		frames[f] = Frame{W: w, H: h, Pix: pix}
	}
	return frames
}

// SAD computes the sum of absolute differences between a macroblock
// at (mx,my) in cur and (rx,ry) in ref.
func SAD(cur, ref *Frame, mx, my, rx, ry int) int32 {
	var acc int32
	for y := 0; y < MB; y++ {
		for x := 0; x < MB; x++ {
			a := cur.Pix[(my+y)*cur.W+mx+x]
			b := ref.Pix[(ry+y)*ref.W+rx+x]
			d := a - b
			if d < 0 {
				d = -d
			}
			acc += d
		}
	}
	return acc
}

// MotionSearch finds the best ±4 full-pel motion vector for the
// macroblock at (mx,my).
func MotionSearch(cur, ref *Frame, mx, my int) (dx, dy int, best int32) {
	best = 1 << 30
	for cy := -4; cy <= 4; cy++ {
		for cx := -4; cx <= 4; cx++ {
			rx, ry := mx+cx, my+cy
			if rx < 0 || ry < 0 || rx+MB > cur.W || ry+MB > cur.H {
				continue
			}
			s := SAD(cur, ref, mx, my, rx, ry)
			if s < best {
				best, dx, dy = s, cx, cy
			}
		}
	}
	return dx, dy, best
}

// Hadamard4 applies a 4x4 Hadamard-style transform in place over the
// 16 values (separable +/- butterflies).
func Hadamard4(b []int32) {
	for r := 0; r < 4; r++ {
		i := r * 4
		a0, a1, a2, a3 := b[i], b[i+1], b[i+2], b[i+3]
		b[i] = a0 + a1 + a2 + a3
		b[i+1] = a0 - a1 + a2 - a3
		b[i+2] = a0 + a1 - a2 - a3
		b[i+3] = a0 - a1 - a2 + a3
	}
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := b[c], b[c+4], b[c+8], b[c+12]
		b[c] = (a0 + a1 + a2 + a3) >> 1
		b[c+4] = (a0 - a1 + a2 - a3) >> 1
		b[c+8] = (a0 + a1 - a2 - a3) >> 1
		b[c+12] = (a0 - a1 - a2 + a3) >> 1
	}
}

// EncodeMB encodes one macroblock against a reference frame and
// returns the entropy-coded stream (mv + coefficients).
func EncodeMB(cur, ref *Frame, mx, my int, qp int32) []int32 {
	dx, dy, _ := MotionSearch(cur, ref, mx, my)
	out := []int32{int32(dx), int32(dy)}
	// Residual in 4x4 sub-blocks.
	for sy := 0; sy < MB; sy += 4 {
		for sx := 0; sx < MB; sx += 4 {
			var blk [16]int32
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					cx, cy := mx+sx+x, my+sy+y
					rx, ry := cx+dx, cy+dy
					blk[y*4+x] = cur.Pix[cy*cur.W+cx] - ref.Pix[ry*ref.W+rx]
				}
			}
			Hadamard4(blk[:])
			// Quantize + RLE.
			run := int32(0)
			for _, v := range blk {
				q := v / (qp + 1)
				if q == 0 {
					run++
					continue
				}
				out = append(out, run, q)
				run = 0
			}
			out = append(out, 0, 0)
		}
	}
	return out
}

// EncodeVideo encodes frames[1:] against their predecessors and
// returns the full stream — the golden model for the CIC version.
func EncodeVideo(frames []Frame, qp int32) []int32 {
	var out []int32
	for f := 1; f < len(frames); f++ {
		cur, ref := &frames[f], &frames[f-1]
		for my := 0; my+MB <= cur.H; my += MB {
			for mx := 0; mx+MB <= cur.W; mx += MB {
				out = append(out, EncodeMB(cur, ref, mx, my, qp)...)
			}
		}
	}
	return out
}

// H264Spec builds the CIC application of the section V study: a
// macroblock pipeline (dispatch -> N parallel motion/transform
// workers -> entropy merge). One spec, translated to both the
// Cell-like and SMP architectures, must produce identical streams.
//
// Workers split the macroblock rows of each frame; the merger
// restores raster order, so output is target-independent.
func H264Spec(w, h, nFrames, workers int, qp int32, seed uint64) *cic.Spec {
	frames := SyntheticVideo(w, h, nFrames, seed)
	mbRows := h / MB
	mbCols := w / MB
	if workers > mbRows {
		workers = mbRows
	}
	// Row ranges per worker.
	rowsOf := func(wk int) (int, int) {
		per := (mbRows + workers - 1) / workers
		lo := wk * per
		hi := lo + per
		if hi > mbRows {
			hi = mbRows
		}
		return lo, hi
	}
	nPairs := nFrames - 1

	spec := &cic.Spec{Name: fmt.Sprintf("h264_%dx%d_f%d_w%d", w, h, nFrames, workers)}
	cyc := func(c int64) map[string]int64 {
		return map[string]int64{"CTRL": c, "DSP": c / 3, "RISC": c}
	}

	// Dispatcher: per frame pair, sends one token per worker naming
	// the frame index (workers hold frames as read-only state; in the
	// real system this is the DMA of the frame slice).
	dispatch := &cic.TaskSpec{
		Name: "dispatch", Firings: nPairs,
		CyclesPerFiring: cyc(20_000),
		CodeBytes:       8 << 10, DataBytes: 16 << 10,
	}
	for wk := 0; wk < workers; wk++ {
		dispatch.Out = append(dispatch.Out, cic.PortSpec{
			Name: fmt.Sprintf("f%d", wk), Rate: 1, TokenInts: 1,
		})
	}
	dispatch.Go = func(ctx *cic.TaskCtx) {
		for wk := 0; wk < workers; wk++ {
			ctx.Write(fmt.Sprintf("f%d", wk), int32(ctx.Firing+1))
		}
	}
	spec.Tasks = append(spec.Tasks, dispatch)

	// Workers: encode their row range; emit a length-prefixed stream
	// token. Worst case per macroblock: 2 mv ints + 16 sub-blocks x
	// (16 coefficients as (run,level) pairs + terminator) = 546 ints.
	maxRows := (mbRows + workers - 1) / workers
	maxTok := 1 + mbCols*maxRows*(2+16*(16*2+2))
	for wk := 0; wk < workers; wk++ {
		wk := wk
		lo, hi := rowsOf(wk)
		spec.Tasks = append(spec.Tasks, &cic.TaskSpec{
			Name: fmt.Sprintf("enc%d", wk), Firings: nPairs,
			In:              []cic.PortSpec{{Name: "i", Rate: 1, TokenInts: 1}},
			Out:             []cic.PortSpec{{Name: "o", Rate: 1, TokenInts: maxTok}},
			CyclesPerFiring: cyc(int64(400_000 * (hi - lo))),
			CodeBytes:       24 << 10, DataBytes: 64 << 10,
			Go: func(ctx *cic.TaskCtx) {
				f := int(ctx.Read("i")[0])
				cur, ref := &frames[f], &frames[f-1]
				var stream []int32
				for r := lo; r < hi; r++ {
					for c := 0; c < mbCols; c++ {
						stream = append(stream, EncodeMB(cur, ref, c*MB, r*MB, qp)...)
					}
				}
				tok := make([]int32, maxTok)
				tok[0] = int32(len(stream))
				copy(tok[1:], stream)
				ctx.Write("o", tok...)
			},
		})
	}

	// Merger: collects worker streams in worker order (raster order)
	// and emits the byte-exact stream.
	merge := &cic.TaskSpec{
		Name: "merge", Firings: nPairs,
		CyclesPerFiring: cyc(30_000),
		CodeBytes:       8 << 10, DataBytes: 32 << 10,
	}
	for wk := 0; wk < workers; wk++ {
		merge.In = append(merge.In, cic.PortSpec{
			Name: fmt.Sprintf("s%d", wk), Rate: 1, TokenInts: maxTok,
		})
	}
	merge.Go = func(ctx *cic.TaskCtx) {
		for wk := 0; wk < workers; wk++ {
			tok := ctx.Read(fmt.Sprintf("s%d", wk))
			n := int(tok[0])
			ctx.Emit(tok[1 : 1+n]...)
		}
	}
	spec.Tasks = append(spec.Tasks, merge)

	for wk := 0; wk < workers; wk++ {
		spec.Channels = append(spec.Channels,
			&cic.ChannelSpec{
				Name:    fmt.Sprintf("cf%d", wk),
				SrcTask: "dispatch", SrcPort: fmt.Sprintf("f%d", wk),
				DstTask: fmt.Sprintf("enc%d", wk), DstPort: "i", Depth: 2,
			},
			&cic.ChannelSpec{
				Name:    fmt.Sprintf("cs%d", wk),
				SrcTask: fmt.Sprintf("enc%d", wk), SrcPort: "o",
				DstTask: "merge", DstPort: fmt.Sprintf("s%d", wk), Depth: 2,
			})
	}
	return spec
}
