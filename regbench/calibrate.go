package main

import (
	"math/rand"
	"sort"
	"time"
)

// The machines this benchmark runs on are shared: other tenants slow them
// down by up to 2–3× for minutes at a time, which no amount of in-run
// averaging removes. Every timed window is therefore bracketed by a fixed
// reference kernel — sorting and hashing a fixed array with the standard
// library, no repository code — and the window's time metrics are scaled
// by how fast the kernel ran then relative to its rate on the reference
// machine. A window that ran while the machine was at half speed reports
// what it would have at full speed; a change to the allocator moves the
// window and not the kernel, so it still shows in full.

const (
	// calKernel is how long each kernel measurement runs.
	calKernel = 100 * time.Millisecond
	// calRefRate is the kernel's rate (iterations per second) on the
	// reference machine, a 2-vCPU Intel Xeon VM, when otherwise idle.
	calRefRate = 800.0
)

// calibration measures the reference kernel between timed windows.
type calibration struct {
	src  []int
	last float64 // the latest kernel rate
}

func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{src: make([]int, 1<<14)}
	for i := range c.src {
		c.src[i] = rng.Int()
	}
	c.last = c.rate()
	return c
}

// rate runs the kernel for calKernel and returns its iterations per second.
func (c *calibration) rate() float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < calKernel {
		buf := append([]int(nil), c.src...)
		sort.Ints(buf)
		m := make(map[int]int, 256)
		for i := 0; i < 2048; i++ {
			m[buf[i]&1023] += i
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// slowdown measures the kernel after a timed window and returns how much
// slower than the reference the machine ran during it (the kernel's
// reference rate over its mean rate before and after the window; above 1
// means slower). Durations are divided by it, rates multiplied.
func (c *calibration) slowdown() float64 {
	now := c.rate()
	s := calRefRate / ((c.last + now) / 2)
	c.last = now
	return s
}

// windows is how many timed windows a measured phase is cut into; each
// window is calibrated on its own and the run reports the medians, so a
// burst of interference moves only the windows it overlaps.
const windows = 8

// windowSet collects the calibrated per-window metrics of a measured phase
// and reports their medians.
type windowSet struct {
	valuesPerS, funcsPerS, p50, p99 []float64
	// uncalibrated values per second and latency percentiles
	rawRate, rawP50, rawP99 []float64
}

func (w *windowSet) addRate(values, funcs int64, elapsed time.Duration, slow float64) {
	secs := elapsed.Seconds()
	w.valuesPerS = append(w.valuesPerS, float64(values)/secs*slow)
	w.funcsPerS = append(w.funcsPerS, float64(funcs)/secs*slow)
	w.rawRate = append(w.rawRate, float64(values)/secs)
}

func (w *windowSet) addLatency(lat []time.Duration, slow float64) {
	p50, p99 := ms(percentile(lat, 0.50)), ms(percentile(lat, 0.99))
	w.p50 = append(w.p50, p50/slow)
	w.p99 = append(w.p99, p99/slow)
	w.rawP50 = append(w.rawP50, p50)
	w.rawP99 = append(w.rawP99, p99)
}

func (w *windowSet) report(m *metricSet) {
	m.set("values_per_s", median(w.valuesPerS))
	m.set("funcs_per_s", median(w.funcsPerS))
	m.set("lat_p50_ms", median(w.p50))
	m.set("lat_p99_ms", median(w.p99))
	m.note("uncalibrated medians over %d windows: %.0f values/s, p50 %.4f ms, p99 %.4f ms",
		len(w.rawRate), median(w.rawRate), median(w.rawP50), median(w.rawP99))
}
