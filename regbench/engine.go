package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/regalloc"
	"repro/regalloc/workload"
)

// inputVectors are the concrete inputs every original/rewritten pair runs
// on in the output check.
var inputVectors = [][]int64{{1, 2, 3, 4}, {-7, 0, 1 << 40}, {5, -3, 11, 1 << 20}}

// call is one closed-loop operation of an engine workload: one engine call
// over some of the workload's inputs.
type call struct {
	idx    []int // the inputs it allocates, in order
	values int   // their total SSA value count
	do     func() ([]regalloc.FuncResult, error)
}

// moduleCall allocates the given inputs as one compilation unit.
func moduleCall(eng *regalloc.Engine, inputs []*ir.Func, idx []int) call {
	m := &ir.Module{Funcs: make([]*ir.Func, len(idx))}
	values := 0
	for k, i := range idx {
		m.Funcs[k] = inputs[i]
		values += inputs[i].NumValues
	}
	return call{idx: idx, values: values, do: func() ([]regalloc.FuncResult, error) {
		return eng.AllocateModule(context.Background(), m)
	}}
}

// funcCall allocates one input with AllocateFunc.
func funcCall(eng *regalloc.Engine, inputs []*ir.Func, i int) call {
	f := inputs[i]
	return call{idx: []int{i}, values: f.NumValues, do: func() ([]regalloc.FuncResult, error) {
		out, err := eng.AllocateFunc(context.Background(), f)
		return []regalloc.FuncResult{{Name: f.Name, Outcome: out, Err: err}}, nil
	}}
}

// engineBench is a set-up engine workload: its inputs, the calls of its
// closed loop, and the digest of the cold pass's results.
type engineBench struct {
	inputs []*ir.Func
	calls  []call
	// mkCalls builds the workload's calls on fresh engines with the given
	// worker count.
	mkCalls func(jobs int) ([]call, error)
	// newReplay returns the stage-by-stage replay of input i, traced into t
	// (nil: untraced).
	newReplay func(t *tracer) func(i int) (*core.Outcome, error)
	// sequential: the closed loop is one caller running jobs=1 already.
	sequential bool
	// clobbers: outcomes are machine-constrained and are also checked under
	// the clobber-modelling interpreter.
	clobbers bool
	// coldHash is the SHA-256 of the cold pass's rendering, the reference
	// every later pass must reproduce byte for byte; hashing took hashTime.
	coldHash [32]byte
	hashTime time.Duration
}

// start builds the engines and makes the cold pass.
func (b *engineBench) start() error {
	calls, err := b.mkCalls(2)
	if err != nil {
		return err
	}
	b.calls = calls
	h := sha256.New()
	for _, c := range calls {
		res, err := c.do()
		if err == nil {
			err = regalloc.FirstError(res)
		}
		if err != nil {
			return fmt.Errorf("cold pass: %w", err)
		}
		t0 := time.Now()
		h.Write([]byte(regalloc.FormatResults(res, true)))
		b.hashTime += time.Since(t0)
	}
	h.Sum(b.coldHash[:0])
	return nil
}

func (b *engineBench) untimed() time.Duration { return b.hashTime }

// loopStats summarises one closed-loop phase.
type loopStats struct {
	elapsed               time.Duration
	funcs, values, failed int64
	lat                   []time.Duration
	rt                    runtimeDelta
	next                  int // the call to continue with
}

func (s loopStats) funcsPerS() float64 { return float64(s.funcs) / s.elapsed.Seconds() }

// usPerFunc is the phase's wall time per function, in µs.
func (s loopStats) usPerFunc() float64 { return float64(s.elapsed.Microseconds()) / float64(s.funcs) }

// loop runs calls round-robin, one at a time, from call from on, for d (at
// least one call).
func loop(calls []call, from int, d time.Duration) loopStats {
	st := loopStats{next: from}
	before := sampleRuntime()
	start := time.Now()
	for {
		c := calls[st.next%len(calls)]
		st.next++
		t0 := time.Now()
		res, err := c.do()
		st.lat = append(st.lat, time.Since(t0))
		st.funcs += int64(len(c.idx))
		st.values += int64(c.values)
		if err != nil {
			st.failed += int64(len(c.idx))
		} else {
			for _, r := range res {
				if r.Err != nil {
					st.failed++
				}
			}
		}
		if time.Since(start) >= d {
			break
		}
	}
	st.elapsed = time.Since(start)
	st.rt = sampleRuntime().since(before)
	return st
}

func (b *engineBench) measure(d time.Duration, m *metricSet, cal *calibration) (attempted, failed int64) {
	var ws windowSet
	var rt runtimeDelta
	var calls, next int
	cal.slowdown()
	for w := 0; w < windows; w++ {
		st := loop(b.calls, next, d/windows)
		next = st.next
		slow := cal.slowdown()
		ws.addRate(st.values, st.funcs, st.elapsed, slow)
		ws.addLatency(st.lat, slow)
		rt = rt.plus(st.rt)
		attempted += st.funcs
		failed += st.failed
		calls += len(st.lat)
	}
	ws.report(m)
	m.set("allocs_per_func", float64(rt.mallocs)/float64(attempted))
	m.set("bytes_per_func", float64(rt.bytes)/float64(attempted))
	m.note("latency samples: %d calls of %.1f inputs each, about %d per window",
		calls, float64(attempted)/float64(calls), calls/windows)
	return attempted, failed
}

// check verifies the engines' outputs after the measured phase with one
// more (untimed) pass: its results render byte-identically to the cold
// pass, and every rewritten input behaves like its original under the
// reference interpreter.
func (b *engineBench) check(m *metricSet) (attempted, failed int64) {
	h := sha256.New()
	for _, c := range b.calls {
		res, err := c.do()
		if err == nil {
			err = regalloc.FirstError(res)
		}
		if err != nil {
			m.note("CHECK FAILED: pass after the measured phase: %v", err)
			return attempted + 1, failed + 1
		}
		h.Write([]byte(regalloc.FormatResults(res, true)))
		for j, i := range c.idx {
			attempted++
			if err := checkSemantics(b.inputs[i], res[j].Outcome, b.clobbers); err != nil {
				failed++
				m.note("CHECK FAILED: %s: %v", b.inputs[i].Name, err)
			}
		}
	}
	attempted++
	var sum [32]byte
	if h.Sum(sum[:0]); sum != b.coldHash {
		failed++
		m.note("CHECK FAILED: results after the measured phase differ from the cold pass")
	}
	return attempted, failed
}

// checkSemantics runs the original and the rewritten function on every
// input vector and requires identical observable behaviour (and, for
// machine-constrained outcomes, identical behaviour when calls trample
// the caller-saved registers).
func checkSemantics(f *ir.Func, out *core.Outcome, clobbers bool) error {
	if out.Rewritten == nil {
		return nil // non-SSA functions get allocation decisions only
	}
	steps := max(interp.DefaultBudget, 2*f.NumValues)
	for _, in := range inputVectors {
		want, err := interp.Run(f, in, steps)
		if err != nil {
			return fmt.Errorf("original on %v: %w", in, err)
		}
		got, err := interp.Run(out.Rewritten, in, steps)
		if err != nil {
			return fmt.Errorf("rewritten on %v: %w", in, err)
		}
		if d := want.Diff(got); d != "" {
			return fmt.Errorf("rewrite changed behaviour on %v: %s", in, d)
		}
		if !clobbers {
			continue
		}
		got, err = interp.RunWithClobbers(out.Rewritten, in, steps, out.RegisterOf)
		if err != nil {
			return fmt.Errorf("rewritten under clobbers on %v: %w", in, err)
		}
		if d := want.Diff(got); d != "" {
			return fmt.Errorf("a value sits in a clobbered register on %v: %s", in, d)
		}
	}
	return nil
}

// trace is the traced run: the workload's own loop (GC behaviour) and the
// same calls on jobs=1 engines for a quarter of d each (a third for the
// sequential workload, whose own loop is jobs=1 already), then the replay,
// untraced and traced, for the rest.
func (b *engineBench) trace(d time.Duration, t *tracer, m *metricSet) (attempted, failed int64) {
	share := d / 4
	if b.sequential {
		share = d / 3
	}
	own := loop(b.calls, 0, share)
	attempted, failed = own.funcs, own.failed
	setGC(m, own.rt, own.funcs)
	base := own
	if !b.sequential {
		calls1, err := b.mkCalls(1)
		if err != nil {
			m.note("jobs=1 engines: %v", err)
			return attempted + 1, failed + 1
		}
		base = loop(calls1, 0, share)
		attempted += base.funcs
		failed += base.failed
		m.set("pipeline.speedup", own.funcsPerS()/base.funcsPerS())
		m.note("pipeline.speedup bases: jobs=2 %.0f funcs/s, jobs=1 %.0f funcs/s", own.funcsPerS(), base.funcsPerS())
	}

	plain, withSpans := b.newReplay(nil), b.newReplay(t)
	renders := make([]string, len(b.inputs))
	untraced, traced, n, rf := replayPasses(len(b.inputs), t, "func", d-2*share, func(traced bool, pass, i int) bool {
		replay := plain
		if traced {
			replay = withSpans
		}
		out, err := replay(i)
		if traced && pass == 0 {
			renders[i] = regalloc.FormatResults([]regalloc.FuncResult{{Name: b.inputs[i].Name, Outcome: out, Err: err}}, true)
		}
		return err == nil
	})
	attempted += n
	failed += rf
	m.set("regalloc.overhead_us", base.usPerFunc()-untraced)
	m.set("trace.overhead_share", traced/untraced-1)
	setLayers(m, t)

	// The replay must compute what the engine computed: its warm-up pass
	// renders byte-identically to the engine's cold pass (FormatResults
	// renders each function on its own, so per-input renderings
	// concatenate to the per-call ones).
	attempted++
	h := sha256.New()
	for _, c := range b.calls {
		for _, i := range c.idx {
			h.Write([]byte(renders[i]))
		}
	}
	var sum [32]byte
	if h.Sum(sum[:0]); sum != b.coldHash {
		failed++
		m.note("CHECK FAILED: the stage-by-stage replay differs from the engine's results")
	}
	return attempted, failed
}

// balance splits the inputs idx into n groups of near-equal total value
// count (longest first onto the lightest group), each group in input
// order. Equal-sized compilation units keep the per-call latency
// percentiles a property of the engine rather than of which seed drew the
// largest unit.
func balance(inputs []*ir.Func, idx []int, n int) [][]int {
	n = max(1, min(n, len(idx)))
	order := append([]int(nil), idx...)
	sort.SliceStable(order, func(a, b int) bool { return inputs[order[a]].NumValues > inputs[order[b]].NumValues })
	groups := make([][]int, n)
	load := make([]int, n)
	for _, i := range order {
		g := 0
		for k := range load {
			if load[k] < load[g] {
				g = k
			}
		}
		groups[g] = append(groups[g], i)
		load[g] += inputs[i].NumValues
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// unitFuncs is the target compilation-unit size of the module workloads.
const unitFuncs = 100

// setupBatch: workload.GenerateModule at R=4, default allocators, jobs=2,
// no cache, allocated as balanced compilation units of ~100 functions.
func setupBatch(seed int64, scale float64) (bench, error) {
	inputs := workload.GenerateModule(seed, scaled(2000, scale, 20)).Funcs
	groups := balance(inputs, seq(len(inputs)), len(inputs)/unitFuncs)
	b := &engineBench{inputs: inputs}
	b.mkCalls = func(jobs int) ([]call, error) {
		eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(jobs))
		if err != nil {
			return nil, err
		}
		calls := make([]call, len(groups))
		for g, idx := range groups {
			calls[g] = moduleCall(eng, inputs, idx)
		}
		return calls, nil
	}
	b.newReplay = func(t *tracer) func(int) (*core.Outcome, error) {
		r := newReplayer(4, t)
		return func(i int) (*core.Outcome, error) { return r.allocate(inputs[i]) }
	}
	return b, b.start()
}

// setupGiant: 64 workload.GenGiant functions of 1000–8000 values (blocks =
// values/50) at R=8, allocated by sequential AllocateFunc calls.
func setupGiant(seed int64, scale float64) (bench, error) {
	n := scaled(64, scale, 2)
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]*ir.Func, n)
	for i := range inputs {
		// Log-uniform sizes, stratified (one draw per 1/n of the log
		// range), so every seed gets the same size mix and the latency
		// percentiles do not hinge on which seed drew the largest giant.
		values := int(1000 * math.Pow(8, (float64(i)+rng.Float64())/float64(n)))
		inputs[i] = workload.GenGiant(fmt.Sprintf("giant%d", i), rng.Int63(), values, values/50)
	}
	b := &engineBench{inputs: inputs, sequential: true}
	b.mkCalls = func(int) ([]call, error) {
		eng, err := regalloc.New(regalloc.WithRegisters(8))
		if err != nil {
			return nil, err
		}
		calls := make([]call, n)
		for i := range inputs {
			calls[i] = funcCall(eng, inputs, i)
		}
		return calls, nil
	}
	b.newReplay = func(t *tracer) func(int) (*core.Outcome, error) {
		r := newReplayer(8, t)
		return func(i int) (*core.Outcome, error) { return r.allocate(inputs[i]) }
	}
	return b, b.start()
}

// machines are the targets of the machine-constrained workload.
var machines = []string{"armv7", "st231", "jvm98"}

// setupMachine: irgen.ConstrainedFromSeed functions split evenly across the
// machines (one engine each) at R=8 with aggressive coalescing and jobs=2,
// allocated as balanced per-machine compilation units.
func setupMachine(seed int64, scale float64) (bench, error) {
	n := scaled(2000, scale, 2*len(machines))
	cfgs := make([]core.Config, len(machines))
	for k, name := range machines {
		mach, err := arch.ByName(name)
		if err != nil {
			return nil, err
		}
		cfgs[k] = core.Config{Registers: 8, Constraints: mach.Constraints(8),
			Coalescing: coalesce.Aggressive, TrustedCostModel: true}
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]*ir.Func, n)
	for i := range inputs {
		inputs[i] = irgen.ConstrainedFromSeed(rng.Int63(), cfgs[i%len(machines)].Constraints)
	}
	groups := make([][][]int, len(machines))
	for k := range machines {
		var idx []int
		for i := k; i < n; i += len(machines) {
			idx = append(idx, i)
		}
		groups[k] = balance(inputs, idx, len(idx)/unitFuncs)
	}
	b := &engineBench{inputs: inputs, clobbers: true}
	b.mkCalls = func(jobs int) ([]call, error) {
		var calls []call
		for k, name := range machines {
			eng, err := regalloc.New(regalloc.WithRegisters(8), regalloc.WithMachine(name),
				regalloc.WithCoalescing(regalloc.CoalesceAggressive), regalloc.WithJobs(jobs))
			if err != nil {
				return nil, err
			}
			for _, idx := range groups[k] {
				calls = append(calls, moduleCall(eng, inputs, idx))
			}
		}
		return calls, nil
	}
	b.newReplay = func(t *tracer) func(int) (*core.Outcome, error) {
		r := newReplayer(8, t)
		runner := core.NewRunner()
		return func(i int) (*core.Outcome, error) {
			return r.allocateConstrained(inputs[i], runner, cfgs[i%len(machines)])
		}
	}
	return b, b.start()
}

// scaled returns n·scale, at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(float64(n)*scale))
}
