package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// acc accumulates a layer's busy time and call count; mean per call is
// the per-layer figure the traced run reports.
type acc struct {
	n     int64
	total time.Duration
}

func (a *acc) add(d time.Duration) { a.n++; a.total += d }
func (a *acc) meanMS() float64     { return ratio(ms(a.total), float64(a.n)) }
func (a *acc) meanUS() float64     { return ratio(us(a.total), float64(a.n)) }

// runtimeSample reads the process-wide counters the benchmark attributes
// to layers: heap objects allocated and GC versus total CPU time.
type runtimeSample struct {
	allocs   uint64
	gcCPU    float64
	totalCPU float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// allocsSince is the number of heap objects allocated process-wide since
// the sample was taken.
func allocsSince(s runtimeSample) uint64 {
	return readRuntime().allocs - s.allocs
}

// gcFraction is the share of process CPU time spent in the garbage
// collector between two samples.
func gcFraction(a, b runtimeSample) float64 {
	return ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// heapWatch samples the live heap (as of the last completed GC) every few
// milliseconds over the measured phase.
type heapWatch struct {
	samples []float64 // bytes; written by the sampler until stop returns
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func watchHeap() *heapWatch {
	h := &heapWatch{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and waits for it; later calls do nothing.
func (h *heapWatch) stop() {
	h.once.Do(func() { close(h.done) })
	h.wg.Wait()
}

// report stops the sampler and reports the live heap's 90th percentile
// over time, and its maximum as a note. The highest readings depend on
// whether a GC happened to end while a transient structure (a solver
// workspace, a /api/critical audit) was live, so the maximum and even the
// 99th percentile swing from run to run; the 90th percentile is steady.
func (h *heapWatch) report(o *outcome) {
	h.stop()
	const mib = 1 << 20
	o.e2e["heap_live_p90_mb"] = quantile(h.samples, 0.9) / mib
	o.note("heap_peak_mb", quantile(h.samples, 1)/mib, "MiB")
}
