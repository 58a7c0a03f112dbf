package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak is the peak live heap (what the last GC marked live) at fixed
// points of a workload: after its set-up, while the program's structures
// are held, and at the end of its timed work; inside simnet.Run, at fixed
// polls of its context (probeCtx). Each reading collects garbage first,
// so it does not depend on when the runtime last finished a cycle.
type heapPeak struct {
	peak  uint64
	spent time.Duration // total time in readings
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []rtmetrics.Sample{{Name: heapMetric}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// mark collects garbage and records the live heap.
func (h *heapPeak) mark() {
	t := time.Now()
	runtime.GC()
	h.peak = max(h.peak, readHeap())
	h.spent += time.Since(t)
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }
