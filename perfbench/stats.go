package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ranks returns the 1-based ranks of xs, ties sharing their mean rank.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = mean
		}
		i = j + 1
	}
	return r
}

// spearman is the rank correlation of xs and ys (0 when either is
// constant or the slices are shorter than two).
func spearman(xs, ys []float64) float64 {
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	rx, ry := ranks(xs), ranks(ys)
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	n := float64(len(rx))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return ratio(sxy, math.Sqrt(sxx*syy))
}

// heapSampler tracks the peak live heap while it runs by polling
// runtime/metrics, which reads it without stopping the world. The live
// heap is what each collection found reachable, so unlike the heap's
// total size it does not depend on when the collector happened to run.
type heapSampler struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	base, peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler begins sampling every 2 ms until stopPeak is called.
func startHeapSampler() *heapSampler {
	base := heapInUse()
	h := &heapSampler{stop: make(chan struct{}), base: base, peak: base}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapInUse(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stopPeak stops the sampler and returns how far the live heap rose
// above its level at start, in bytes. A pass starts right after a
// collection, so this is the pass's own peak heap, not counting what
// earlier passes left behind (evaluations that park simulation
// processes never release their kernels).
func (h *heapSampler) stopPeak() uint64 {
	close(h.stop)
	h.wg.Wait()
	if v := heapInUse(); v > h.peak {
		h.peak = v
	}
	return h.peak - h.base
}
