// Command regbench is the register allocator's benchmark. It runs four
// seeded workloads against the public entry points — regalloc.Engine and
// the HTTP allocation service of regalloc/service — prints every end-to-end
// metric by name with its unit, and checks every output. A traced run
// (-trace 1) replays the same inputs stage by stage through the layers and
// reports per-layer metrics instead.
//
// One workload, in process (the last stdout line is the JSON result):
//
//	regbench -workload batch-mixed -seed 1 -seconds 15 -trace 0
//
// Every workload, each run in its own child process, results appended to a
// JSON-lines file (run i uses seed+1000·i):
//
//	regbench -seed 1 -runs 10 -json runs.jsonl
//
// Two result files against the bounds in BENCHMARK.json:
//
//	regbench -compare a.jsonl b.jsonl
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// bench is one set-up workload.
type bench interface {
	// untimed is the part of the set-up spent on the benchmark's own
	// bookkeeping (recording reference outputs), excluded from setup_s.
	untimed() time.Duration
	// measure runs the measured phase for d and reports the end-to-end
	// metrics other than setup_s and peak_rss_mb, calibrating each window
	// with cal.
	measure(d time.Duration, m *metricSet, cal *calibration) (attempted, failed int64)
	// check verifies the measured phase's outputs (untimed).
	check(m *metricSet) (attempted, failed int64)
	// trace is the traced run: it reports the per-layer metrics.
	trace(d time.Duration, t *tracer, m *metricSet) (attempted, failed int64)
	close()
}

// workloadDef names a workload and sets it up; README.md gives the reason
// for each.
type workloadDef struct {
	name  string
	setup func(seed int64, scale float64) (bench, error)
}

var workloads = []workloadDef{
	{"batch-mixed", setupBatch},
	{"giant-ssa", setupGiant},
	{"machine-coalesce", setupMachine},
	{"service-dup", setupService},
}

func (b *engineBench) close()                  {}
func (s *serviceBench) untimed() time.Duration { return 0 }

// setupReps is how many times an untraced run sets its workload up; it
// reports the median.
const setupReps = 3

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run in a results file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	CPUs     int     `json:"cpus"`
	Go       string  `json:"go"`
	Result   result  `json:"result"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	spans    string
	json     string
	runs     int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in process: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "input-count multiplier (small values for smoke tests)")
	fs.StringVar(&o.spans, "spans", "", "traced run: write the recorded spans to this file")
	fs.StringVar(&o.json, "json", "", "append each run's record to this JSON-lines file")
	fs.IntVar(&o.runs, "runs", 0, "run each workload (all without -workload) this many times in child processes")
	cmp := fs.Bool("compare", false, "compare two JSON-lines result files: -compare a.jsonl b.jsonl")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare: the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two result files, after any other flag")
			break
		}
		var ok bool
		ok, err = compare(fs.Arg(0), fs.Arg(1), *bounds, stdout)
		if err == nil && !ok {
			return 1
		}
	case o.workload == "" || o.runs > 0:
		var ok bool
		ok, err = suite(o, stdout, stderr)
		if err == nil && !ok {
			return 1
		}
	default:
		err = single(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "regbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

// single runs one workload in this process and prints its result.
func single(o options, stdout io.Writer) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	res, notes, spans, err := measureOne(w, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "regbench %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, o.trace)
	for _, n := range notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, d := range declared(o.trace) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(stdout, "  %-28s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, w.name, o.seed, spans); err != nil {
			return err
		}
	}
	if o.json != "" {
		if err := appendRecords(o.json, []record{newRecord(w.name, o, res)}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func declared(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// measureOne sets the workload up (setupReps times for an untraced run,
// keeping the last set-up) and runs the measured or traced phase.
func measureOne(w workloadDef, o options) (result, []string, []span, error) {
	m := newMetricSet()
	reps := setupReps
	if o.trace == 1 {
		reps = 1
	}
	var cal *calibration
	if o.trace == 0 {
		cal = newCalibration()
	}
	var b bench
	var raw, times []float64
	for k := 0; k < reps; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		nb, err := w.setup(o.seed, o.scale)
		if err != nil {
			return result{}, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		raw = append(raw, (time.Since(t0) - nb.untimed()).Seconds())
		if cal != nil {
			times = append(times, raw[k]/cal.slowdown())
		}
		b = nb
	}
	defer b.close()
	runtime.GC()

	d := time.Duration(o.seconds * float64(time.Second))
	var attempted, failed int64
	var spans []span
	if o.trace == 1 {
		for _, p := range perLayer {
			m.set(p.name, 0)
		}
		t := newTracer(o.spans != "")
		attempted, failed = b.trace(d, t, m)
		spans = t.kept
	} else {
		m.set("setup_s", median(times))
		m.note("set-up times (s): %s calibrated, %s measured", formatFloats(times), formatFloats(raw))
		a, f := b.measure(d, m, cal)
		m.set("peak_rss_mb", peakRSSMiB())
		ca, cf := b.check(m)
		attempted, failed = a+ca, f+cf
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.m}
	for _, d := range declared(o.trace) {
		v, ok := m.m[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// A missing or non-finite metric is a measurement failure; JSON
			// cannot carry NaN, so it reads 0 and the run is incorrect.
			m.note("metric %s missing or not finite", d.name)
			m.m[d.name] = metric{Value: 0, Unit: d.unit}
			res.Correct = false
		}
	}
	return res, m.notes, spans, nil
}

func newRecord(workload string, o options, res result) record {
	return record{Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPUs: runtime.NumCPU(), Go: runtime.Version(), Result: res}
}

// suite runs the selected workloads o.runs times each (at least once), each
// run in a child process so heap state and peak RSS belong to one workload
// alone. Run i uses seed o.seed+1000·i, so suites of different seeds never
// share inputs. It reports whether every run was correct.
func suite(o options, stdout, stderr io.Writer) (bool, error) {
	sel := workloads
	if o.workload != "" {
		w, err := lookup(o.workload)
		if err != nil {
			return false, err
		}
		sel = []workloadDef{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	allOK := true
	var recs []record
	for i := 0; i < max(1, o.runs); i++ {
		for _, w := range sel {
			ro := o
			ro.seed = o.seed + 1000*int64(i)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(ro.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64)}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, ro.seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, ro.seed, err)
			}
			allOK = allOK && res.Correct
			fmt.Fprintf(stderr, "regbench: %s seed %d: correct=%v attempted=%d failed=%d\n",
				w.name, ro.seed, res.Correct, res.Attempted, res.Failed)
			recs = append(recs, newRecord(w.name, ro, res))
		}
	}
	if o.json != "" {
		if err := appendRecords(o.json, recs); err != nil {
			return false, err
		}
	}
	printSummary(stdout, recs, o.trace)
	return allOK, nil
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("reading the result line: %w", err)
	}
	return res, nil
}

// printSummary prints, per workload and metric, the median and the
// quartile spread of the runs.
func printSummary(w io.Writer, recs []record, trace int) {
	fmt.Fprintf(w, "%-17s %-28s %5s %16s %8s %s\n", "workload", "metric", "runs", "median", "spread", "unit")
	for _, wl := range workloads {
		for _, d := range declared(trace) {
			vals := valuesOf(recs, wl.name, d.name)
			if len(vals) == 0 {
				continue
			}
			med, spread := medianSpread(vals)
			fmt.Fprintf(w, "%-17s %-28s %5d %16.6g %7.2f%% %s\n", wl.name, d.name, len(vals), med, 100*spread, d.unit)
		}
	}
}

func appendRecords(path string, recs []record) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// writeSpans writes a traced run's spans as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
