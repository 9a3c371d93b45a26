package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is how many samples the tail leaves beyond it.
const tailBeyond = 10

// tail returns the highest nearest-rank percentile of xs with at least
// tailBeyond samples beyond it, and which percentile that is; for a
// sample too small to leave that many, the maximum (p100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= tailBeyond {
		return s[len(s)-1], 100
	}
	rank := len(s) - tailBeyond
	return s[rank-1], 100 * float64(rank) / float64(len(s))
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for an empty
// sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// scaled multiplies every value by k (seconds to milliseconds, ...).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// heapSampler records the live heap (as marked by a collection) at
// every collection while a workload runs, read through runtime/metrics
// (no stop-the-world).  Live bytes, unlike all allocated bytes, do not
// depend on how far the collector lags behind.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	live []float64 // MiB, one per collection seen
}

var heapMetrics = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

// startHeapSampler begins sampling every 10 ms until Stop, keeping a
// reading whenever a collection has ended since the last one.  The live
// heap only changes when a collection ends, so finer sampling would only
// add wake-ups.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var cycles uint64
		for {
			h.read(&cycles)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// read keeps the live heap if a collection ended since *cycles.
func (h *heapSampler) read(cycles *uint64) {
	sample := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		sample[i].Name = name
	}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 || sample[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	if c := sample[0].Value.Uint64(); c != *cycles {
		*cycles = c
		h.mu.Lock()
		h.live = append(h.live, float64(sample[1].Value.Uint64())/(1<<20))
		h.mu.Unlock()
	}
}

// Stop ends sampling, waits for the sampler to exit and returns the
// live heap of every collection seen, in MiB.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live
}

// maxOf returns the largest of xs, or 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
