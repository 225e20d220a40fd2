package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memWindow sums MemStats deltas over one or more measured segments.
// The reads stop the world only briefly and so are taken in untraced
// runs too.
type memWindow struct {
	at                        runtime.MemStats
	mallocs, bytes, gcs, gcNs uint64
}

func (m *memWindow) start() { runtime.ReadMemStats(&m.at) }

func (m *memWindow) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.mallocs += now.Mallocs - m.at.Mallocs
	m.bytes += now.TotalAlloc - m.at.TotalAlloc
	m.gcs += uint64(now.NumGC - m.at.NumGC)
	m.gcNs += now.PauseTotalNs - m.at.PauseTotalNs
}

// report adds the runtime layer's metrics, normalized by the nodes the
// segments processed.
func (m *memWindow) report(r *report, nodes int) {
	n := float64(nodes)
	r.layer("runtime.allocs_per_node", ratio(float64(m.mallocs), n), "count")
	r.layer("runtime.alloc_bytes_per_node", ratio(float64(m.bytes), n), "B")
	r.layer("runtime.gc_cycles", float64(m.gcs), "count")
	r.layer("runtime.gc_pause_ms", float64(m.gcNs)/1e6, "ms")
}

// heapLiveMB is HeapAlloc after a forced collection. Callers keep the
// Framework reachable across the call, so its memos are counted.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
