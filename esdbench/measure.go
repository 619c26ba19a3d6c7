package main

import (
	"bufio"
	"bytes"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"esd/internal/telemetry"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
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

// minBeyond is how many samples must lie beyond a percentile before it
// is trusted as the tail.
const minBeyond = 10

// tailPercentile returns the highest percentile with at least ten samples
// beyond it — the value with exactly ten larger samples — and which
// percentile that is. It moves smoothly with the sample count, so two
// runs with slightly different counts read nearly the same percentile.
// With fewer than twenty samples that percentile would fall below the
// median; the tail is then the maximum, reported as percentile 100.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 2*minBeyond {
		return 100, s[n-1]
	}
	rank := n - minBeyond // 1-based: minBeyond samples lie beyond it
	return 100 * float64(rank) / float64(n), s[rank-1]
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Go runtime counters read from runtime/metrics.
const (
	rmHeapLive   = "/gc/heap/live:bytes"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

type goCounters struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	heapLive   float64
}

func readGo() goCounters {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmHeapLive}}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{
		allocBytes: val(s[0].Value),
		gcCPU:      val(s[1].Value),
		totalCPU:   val(s[2].Value),
		heapLive:   val(s[3].Value),
	}
}

// heapSampler records the highest Go heap in use in each of a series of
// windows — one per operation, or one per second for overlapping
// requests. The heap is the live heap as marked by each garbage
// collection (runtime/metrics, read every few milliseconds without
// stopping the world), which does not depend on where in a GC cycle a
// sample lands. peak_heap_mb is the median window peak: the maximum over
// a whole phase hinges on which requests happen to be in flight at one
// collection, and moved by a third from run to run.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	cur   float64
	peaks []float64
}

const heapSampleEvery = 5 * time.Millisecond

// startHeapSampler starts sampling; a positive window cuts windows on its
// own, otherwise the caller cuts one after each operation.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		next := time.Now().Add(window)
		for {
			h.sample()
			if window > 0 && time.Now().After(next) {
				h.cut()
				next = next.Add(window)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readGo().heapLive
	h.mu.Lock()
	h.cur = max(h.cur, v)
	h.mu.Unlock()
}

// cut ends the current window and records its peak.
func (h *heapSampler) cut() {
	h.sample()
	h.mu.Lock()
	h.peaks = append(h.peaks, h.cur)
	h.cur = 0
	h.mu.Unlock()
}

// Stop ends sampling, waits for the sampler to exit, and returns the
// median window peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.peaks) == 0 {
		return h.cur
	}
	return median(h.peaks)
}

// promSnapshot parses the program's process-wide metrics registry
// (Prometheus text format) into series → value. The benchmark reads
// these counters as the program exposes them on /metrics.
func promSnapshot() map[string]float64 {
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf); err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// promDelta returns after − before for every series in after.
func promDelta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// solverHitRatio is the share of solver cache lookups answered by some
// tier: query-level and component-level lookups each either hit (private,
// then shared, then persistent) or go on to be solved.
func solverHitRatio(d map[string]float64) float64 {
	series := func(kind, cache string) float64 {
		return d["esd_solver_cache_"+kind+`_total{cache="`+cache+`"}`]
	}
	hits := series("hits", "query") + series("hits", "component") + series("hits", "shared") + series("hits", "persistent")
	lookups := series("hits", "query") + series("misses", "query") + series("hits", "component") + series("misses", "component")
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}
