package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-th percentile (0 <= q <= 100) of sorted by
// linear interpolation between the closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailPercentiles are the percentiles tailOf chooses from, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is the highest percentile a sample supports.
type tail struct {
	Q       float64 `json:"q"`
	Value   float64 `json:"value"`
	Beyond  int     `json:"beyond"`
	Samples int     `json:"samples"`
}

// tailOf picks the highest of tailPercentiles with at least minBeyond
// samples strictly above it, and reports it with the sample count. When
// no candidate qualifies it reports the median and how many lie beyond;
// with no samples at all, the zero tail.
func tailOf(sorted []float64) tail {
	var t tail
	if len(sorted) == 0 {
		return t
	}
	for _, q := range tailPercentiles {
		v := percentile(sorted, q)
		beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
		t = tail{Q: q, Value: v, Beyond: beyond, Samples: len(sorted)}
		if beyond >= minBeyond {
			break
		}
	}
	return t
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// heapSampler records the peak of the live heap while it runs: the bytes
// the last garbage collection found reachable. Unlike the heap's object
// bytes, which include garbage not yet collected, that does not swing
// with when a collection happens to run. It reads runtime/metrics, which
// does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if v := sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// gcSnapshot is the Go runtime's GC state at one instant.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
	cpu     float64 // GC CPU fraction since process start
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, cpu: ms.GCCPUFraction}
}
