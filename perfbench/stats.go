package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// median returns the median of xs (the mean of the middle pair for an
// even count); zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// mean returns the mean of xs; zero for none.
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

// cpuTime is the process's user+system CPU time so far, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is the resource use of one measured interval: its start, wall,
// process CPU, bytes and objects allocated.
type span struct {
	start         time.Time
	wall, cpu     time.Duration
	bytes, allocs uint64
}

// meter marks the start of a span.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

// startMeter opens a span. Callers that want the span to start from a
// clean heap, not paying for its predecessor's garbage, run runtime.GC
// first.
func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() span {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return span{
		start:  m.t0,
		wall:   wall,
		cpu:    cpu,
		bytes:  ms.TotalAlloc - m.ms0.TotalAlloc,
		allocs: ms.Mallocs - m.ms0.Mallocs,
	}
}

// ratio is a/b, zero when b is zero (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
