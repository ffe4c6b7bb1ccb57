package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The host the benchmark runs on shares its cores with other tenants,
// and its speed drifts: the same deterministic convergence takes up to
// twice as long in one stretch as in another, and stretches last from
// seconds to many minutes, so a run that falls in a slow one is slow
// throughout. No estimator over one run's raw times removes that. So
// every CPU-bound time the benchmark reports is converted to reference
// seconds: the time measured, multiplied by how much slower than usual
// a fixed calibration kernel ran right before and right after it (on
// tcp, around all the run's operations; see measureTCP). A change to
// the program moves its own time and not the kernel's, so it moves the
// reported time in full; a slow stretch of the host moves both and
// cancels.

// calRef is a calibration's typical time, in seconds, on the 2-vCPU
// host the bounds were set on: a time measured there reads about the
// same in reference seconds.
const calRef = 0.100

// calRuns is how many times a calibration runs the kernel. Over tens of
// milliseconds that host flips between a fast and a slow speed about
// 1.7x apart, so a calibration sums enough runs to see the mix of the
// two that a long operation sees, not one of them.
const calRuns = 8

// calKernel is the fixed work a calibration times: map updates driven
// by a fixed pseudo-random sequence, the same kind of work as the
// protocol handlers' per-message bookkeeping.
func calKernel() int {
	m := make(map[int]int)
	r := rand.New(rand.NewSource(1))
	s := 0
	for i := 0; i < 250_000; i++ {
		k := r.Intn(5000)
		m[k] += i
		s += m[k] & 1
	}
	return s
}

// calSink keeps the kernel's result live.
var calSink int

// calibrate returns the time of calRuns kernel runs in seconds. It
// collects the garbage of the phase before it first, so no GC cycle of
// the program runs beside the kernel.
func calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < calRuns; i++ {
		calSink += calKernel()
	}
	return time.Since(t0).Seconds()
}

// refClock brackets measured intervals with calibrations. Every timed
// phase of a run is followed by scale, so each phase lies between two
// calibrations.
type refClock struct {
	last float64   // the latest calibration
	cals []float64 // every calibration of the run
}

// newRefClock warms the kernel up and takes the first calibration.
func newRefClock() *refClock {
	calibrate()
	c := &refClock{last: calibrate()}
	c.cals = append(c.cals, c.last)
	return c
}

// scale calibrates again and returns the factor that converts times
// measured since the previous calibration to reference seconds.
func (c *refClock) scale() float64 {
	now := calibrate()
	f := calRef / ((c.last + now) / 2)
	c.last = now
	c.cals = append(c.cals, now)
	return f
}

// calMS is the run's median calibration in milliseconds: how fast the
// host was during the run, next to calRef.
func (c *refClock) calMS() float64 { return median(c.cals) * 1e3 }
