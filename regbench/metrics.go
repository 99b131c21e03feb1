package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics plus free-text notes (sample counts,
// ratio bases, check failures) printed above the result line.
type metricSet struct {
	m     map[string]metric
	notes []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

// set records a metric declared in endToEnd or perLayer, with its unit.
func (s *metricSet) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("regbench: undeclared metric " + name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"values_per_s", "values/s"},
	{"funcs_per_s", "funcs/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"allocs_per_func", "allocs/func"},
	{"bytes_per_func", "B/func"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced run's metrics. Every traced run reports all of
// them; a layer a workload never enters reads 0. Times are self time per
// input (function or request) in µs; counts are per input.
var perLayer = []metricDef{
	{"ir.parse_us", "us"},
	{"ir.validate_us", "us"},
	{"ir.loops_us", "us"},
	{"liveness.us", "us"},
	{"liveness.points", "count"},
	{"spillcost.us", "us"},
	{"cliques.us", "us"},
	{"cliques.sets", "count"},
	{"cliques.maxlive", "count"},
	{"ifg.us", "us"},
	{"ifg.edges", "count"},
	{"alloc.problem_us", "us"},
	{"alloc.allocate_us", "us"},
	{"alloc.spilled", "count"},
	{"alloc.spill_cost", "cost"},
	{"coalesce.us", "us"},
	{"coalesce.moves", "count"},
	{"coalesce.classes", "count"},
	{"coalesce.residual_cost", "cost"},
	{"regassign.assign_us", "us"},
	{"regassign.verify_us", "us"},
	{"regassign.rewrite_us", "us"},
	{"regassign.spill_instrs", "count"},
	{"core.constrained_us", "us"},
	{"fingerprint.us", "us"},
	{"outcache.get_us", "us"},
	{"outcache.put_us", "us"},
	{"outcache.hit_ratio", "ratio"},
	{"outcache.admitted", "count"},
	{"outcache.evicted", "count"},
	{"server.decode_us", "us"},
	{"server.parse_us", "us"},
	{"server.allocate_us", "us"},
	{"server.encode_us", "us"},
	{"server.http_us", "us"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"regalloc.overhead_us", "us"},
	{"pipeline.speedup", "ratio"},
	{"runtime.gc_cycles_per_kfunc", "1/kfunc"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// probedStages are the constrained driver's stages the replay times on
// their own before running the driver (see allocateConstrained).
var probedStages = []string{"ir.validate", "ir.loops", "liveness", "spillcost", "cliques", "coalesce"}

// setLayers fills the span-derived per-layer metrics from a traced replay.
func setLayers(m *metricSet, t *tracer) {
	for _, p := range perLayer {
		if p.unit == "us" {
			if name, ok := spanOf(p.name); ok {
				if _, seen := t.self[name]; seen {
					m.set(p.name, t.selfUS(name))
				}
			}
			continue
		}
		if _, ok := t.counts[p.name]; ok {
			m.set(p.name, t.perRoot(p.name))
		}
	}
	if t.self["core.run"] > 0 {
		us := t.selfUS("core.run")
		for _, s := range probedStages {
			us -= t.selfUS(s)
		}
		m.set("core.constrained_us", us)
	}
}

// spanOf maps a µs metric to its span name: "liveness.us" → "liveness",
// "alloc.problem_us" → "alloc.problem".
func spanOf(metric string) (string, bool) {
	if s, ok := strings.CutSuffix(metric, ".us"); ok {
		return s, true
	}
	if s, ok := strings.CutSuffix(metric, "_us"); ok && strings.Contains(s, ".") {
		return s, true
	}
	return "", false
}

// setGC reports the garbage collector's share of a phase that processed
// funcs inputs.
func setGC(m *metricSet, d runtimeDelta, funcs int64) {
	m.set("runtime.gc_cycles_per_kfunc", float64(d.gcCycles)/(float64(funcs)/1000))
	if d.cpu > 0 {
		m.set("runtime.gc_cpu_share", d.gcCPU/d.cpu)
	}
}

// runtimeSample is a snapshot of the Go runtime's allocation, GC and CPU
// counters.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU, cpu     float64
}

// runtimeDelta is the difference of two samples.
type runtimeDelta runtimeSample

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

func (d runtimeDelta) plus(e runtimeDelta) runtimeDelta {
	return runtimeDelta{mallocs: d.mallocs + e.mallocs, bytes: d.bytes + e.bytes,
		gcCycles: d.gcCycles + e.gcCycles, gcCPU: d.gcCPU + e.gcCPU, cpu: d.cpu + e.cpu}
}

func (s runtimeSample) since(b runtimeSample) runtimeDelta {
	return runtimeDelta{mallocs: s.mallocs - b.mallocs, bytes: s.bytes - b.bytes,
		gcCycles: s.gcCycles - b.gcCycles, gcCPU: s.gcCPU - b.gcCPU, cpu: s.cpu - b.cpu}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the nearest-rank q-quantile of ds (sorted in place).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, k)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
