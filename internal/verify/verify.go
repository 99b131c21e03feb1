// Package verify is the semantic verification harness of the repository: it
// closes the loop between the allocator pipeline (internal/core), the
// reference interpreter (internal/interp) and the random program generator
// (internal/irgen) by differential checking.
//
// For one function, every allocator, and every register count R, the
// harness asserts three independent invariants:
//
//  1. Allocation soundness — at every program point, at most R of the
//     values the allocator kept are simultaneously live (recomputed here
//     from liveness, not trusted from alloc.Problem).
//  2. Assignment soundness — for SSA functions, every kept value holds a
//     register in [0, R) and no two simultaneously-live kept values share
//     one (recomputed from the per-point live sets, independently of
//     regassign.VerifyAssignment).
//  3. Semantic preservation — interpreting the spill-everywhere rewrite on
//     concrete inputs yields the same observable behaviour (return value,
//     side-effect trace, timeout point) as the original function.
//
// Any violation is reported as a *Failure carrying enough context (seed,
// allocator, R, input vector) to replay it deterministically.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ifg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
	"repro/internal/regassign"
)

// DefaultRegisters is the register-count sweep of the differential check.
var DefaultRegisters = []int{2, 3, 4, 8}

// DefaultInputs are the concrete input vectors each function pair is
// executed on. Parameters beyond a vector's length read deterministic
// defaults, so short vectors are fine for any arity.
var DefaultInputs = [][]int64{
	{1, 2, 3, 4},
	{-7, 0, 1 << 40},
}

// Options configures a check run.
type Options struct {
	// Registers to sweep (default DefaultRegisters).
	Registers []int
	// Allocators by core.AllocatorByName name (default all).
	Allocators []string
	// Inputs are the concrete input vectors (default DefaultInputs).
	Inputs [][]int64
	// Budget is the interpreter's semantic step budget (default
	// interp.DefaultBudget).
	Budget int
}

func (o *Options) fill() {
	if len(o.Registers) == 0 {
		o.Registers = DefaultRegisters
	}
	if len(o.Allocators) == 0 {
		o.Allocators = core.AllocatorNames()
	}
	if len(o.Inputs) == 0 {
		o.Inputs = DefaultInputs
	}
	if o.Budget <= 0 {
		o.Budget = interp.DefaultBudget
	}
}

// Failure is one invariant violation.
type Failure struct {
	Func      string
	Allocator string
	R         int
	Input     []int64
	Detail    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("verify: %s [alloc=%s R=%d input=%v]: %s",
		f.Func, f.Allocator, f.R, f.Input, f.Detail)
}

// CheckSeed generates the function for one irgen seed and checks it.
func CheckSeed(seed int64, opts Options) error {
	return CheckFunc(irgen.FromSeed(seed), opts)
}

// CheckModule runs the full differential matrix over every function of a
// compilation unit, in module order, returning the first failure — the
// module-level entry point the batch pipeline's corpus tests drive.
func CheckModule(m *ir.Module, opts Options) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for _, f := range m.Funcs {
		if err := CheckFunc(f, opts); err != nil {
			return fmt.Errorf("module func %s: %w", f.Name, err)
		}
	}
	return nil
}

// CheckFunc runs the full differential matrix over f and returns the first
// failure, or nil.
func CheckFunc(f *ir.Func, opts Options) error {
	opts.fill()
	fail := func(allocName string, r int, input []int64, format string, args ...any) error {
		return &Failure{
			Func: f.Name, Allocator: allocName, R: r, Input: input,
			Detail: fmt.Sprintf(format, args...),
		}
	}
	// Reference executions of the original, one per input vector.
	orig := make([]*interp.Result, len(opts.Inputs))
	for i, in := range opts.Inputs {
		res, err := interp.Run(f, in, opts.Budget)
		if err != nil {
			return fail("-", 0, in, "original function failed to execute: %v", err)
		}
		orig[i] = res
	}
	info := liveness.Compute(f)
	// The paper's layered-optimal allocators are chordal-only (they panic,
	// by contract, on general graphs); restrict the matrix the way the
	// paper's own lineups do. Strict-SSA functions are always chordal.
	chordal := false
	if f.SSA {
		b := ifg.FromLiveness(info)
		chordal = b.Graph.IsPerfectEliminationOrder(b.Graph.PerfectEliminationOrder())
	}
	// Rewrites are a function of the spill set alone, so executions are
	// cached across allocators that agree on what to spill.
	type rewriteRuns struct{ runs []*interp.Result }
	cache := make(map[string]*rewriteRuns)

	for _, allocName := range opts.Allocators {
		if alloc.ChordalOnly(allocName) && !chordal {
			continue
		}
		a, err := core.AllocatorByName(allocName)
		if err != nil {
			return err
		}
		for _, r := range opts.Registers {
			out, err := core.Run(f, core.Config{Registers: r, Allocator: a})
			if err != nil {
				return fail(allocName, r, nil, "pipeline: %v", err)
			}
			if err := checkAllocPressure(info, out, r); err != nil {
				return fail(allocName, r, nil, "%v", err)
			}
			if out.RegisterOf != nil {
				if err := checkAssignment(info, out, r); err != nil {
					return fail(allocName, r, nil, "%v", err)
				}
			}
			rewritten := out.Rewritten
			if rewritten == nil {
				// Non-SSA (or non-chordal) pipelines stop after allocation;
				// spill-everywhere rewriting is still allocator-independent
				// and semantically checkable, so do it here.
				spilledVals := make([]bool, f.NumValues)
				for _, v := range out.SpilledValues {
					spilledVals[v] = true
				}
				rewritten = regassign.InsertSpillCode(f, spilledVals)
				if err := rewritten.Validate(); err != nil {
					return fail(allocName, r, nil, "rewrite invalid: %v", err)
				}
			}
			key := spillKey(out.SpilledValues)
			runs := cache[key]
			if runs == nil {
				runs = &rewriteRuns{runs: make([]*interp.Result, len(opts.Inputs))}
				for i, in := range opts.Inputs {
					res, err := interp.Run(rewritten, in, opts.Budget)
					if err != nil {
						return fail(allocName, r, in, "rewritten function failed to execute: %v", err)
					}
					runs.runs[i] = res
				}
				cache[key] = runs
			}
			for i, in := range opts.Inputs {
				if d := orig[i].Diff(runs.runs[i]); d != "" {
					return fail(allocName, r, in,
						"rewrite changed behaviour (spilled %v): %s", out.SpilledValues, d)
				}
			}
		}
	}
	return nil
}

// CheckOutcome re-checks one pipeline outcome at r registers against
// liveness recomputed from out.F: invariant 1 (at most r allocated values
// live at any point) and, when the outcome carries a register map,
// invariant 2. It trusts nothing of the outcome's Problem, which carries
// decisions only.
func CheckOutcome(out *core.Outcome, r int) error {
	info := liveness.Compute(out.F)
	if err := checkAllocPressure(info, out, r); err != nil {
		return err
	}
	if out.RegisterOf != nil {
		return checkAssignment(info, out, r)
	}
	return nil
}

// checkAllocPressure re-derives invariant 1 from the per-point live sets:
// at most R allocated values live anywhere.
func checkAllocPressure(info *liveness.Info, out *core.Outcome, r int) error {
	allocated := allocatedValues(out)
	for _, p := range info.Points {
		live := 0
		for _, v := range p.Live {
			if allocated[v] {
				live++
			}
		}
		if live > r {
			return fmt.Errorf("allocated pressure %d > R=%d at block %d point %d",
				live, r, p.Block, p.Index)
		}
	}
	return nil
}

// checkAssignment re-derives invariant 2: every allocated value has a
// register in [0, R), and interfering allocated values never share one.
func checkAssignment(info *liveness.Info, out *core.Outcome, r int) error {
	allocated := allocatedValues(out)
	regOf := out.RegisterOf
	for v, al := range allocated {
		if !al {
			continue
		}
		if regOf[v] < 0 || regOf[v] >= r {
			return fmt.Errorf("allocated value %s got register %d, want [0,%d)",
				info.F.NameOf(v), regOf[v], r)
		}
	}
	seen := make([]int, r)
	for _, p := range info.Points {
		for i := range seen {
			seen[i] = -1
		}
		for _, v := range p.Live {
			if !allocated[v] || regOf[v] < 0 || regOf[v] >= len(seen) {
				continue
			}
			if prev := seen[regOf[v]]; prev >= 0 {
				return fmt.Errorf("values %s and %s share r%d at block %d point %d",
					info.F.NameOf(prev), info.F.NameOf(v), regOf[v], p.Block, p.Index)
			}
			seen[regOf[v]] = v
		}
	}
	return nil
}

// allocatedValues maps the vertex-indexed allocation back to value IDs.
func allocatedValues(out *core.Outcome) []bool {
	allocated := make([]bool, out.F.NumValues)
	for vx, al := range out.Result.Allocated {
		if al {
			allocated[out.ValueOf[vx]] = true
		}
	}
	return allocated
}

func spillKey(spilled []int) string {
	var b strings.Builder
	for _, v := range spilled {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Soak checks seeds [base, base+n) and returns the failures (nil Detail
// entries never occur) up to maxFail; progress is reported through report
// if non-nil.
func Soak(base int64, n int, opts Options, maxFail int, report func(done int, failed int)) []*Failure {
	if maxFail <= 0 {
		maxFail = 1
	}
	var fails []*Failure
	for i := 0; i < n; i++ {
		err := CheckSeed(base+int64(i), opts)
		if err != nil {
			if f, ok := err.(*Failure); ok {
				fails = append(fails, f)
			} else {
				fails = append(fails, &Failure{Func: fmt.Sprintf("seed%d", base+int64(i)), Detail: err.Error()})
			}
			if len(fails) >= maxFail {
				return fails
			}
		}
		if report != nil {
			report(i+1, len(fails))
		}
	}
	return fails
}
