package verify

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
	"repro/internal/regassign"
)

// DefaultMachines is the target sweep of the machine-constrained
// differential check: every registered machine.
func DefaultMachines() []arch.Machine {
	names := arch.Names()
	ms := make([]arch.Machine, 0, len(names))
	for _, n := range names {
		m, err := arch.ByName(n)
		if err != nil {
			panic(err) // registry self-lookup cannot fail
		}
		ms = append(ms, m)
	}
	return ms
}

// CheckConstrainedSeed generates one constrained function per register count
// and checks it under the machine instantiated at that count. The function
// is regenerated per R because the annotations scale with the machine shape:
// the ABI pins and clobber sets of st231 at R=2 are not those at R=8.
func CheckConstrainedSeed(seed int64, m arch.Machine, opts Options) error {
	opts.fill()
	for _, r := range opts.Registers {
		cons := m.Constraints(r)
		f := irgen.ConstrainedFromSeed(seed, cons)
		if err := CheckConstrained(f, cons, opts); err != nil {
			return fmt.Errorf("machine %s R=%d: %w", m.Name, r, err)
		}
	}
	return nil
}

// CheckConstrained runs the machine-constrained differential matrix over f:
// every allocator of opts, under the given constraint instance (whose
// per-class capacities play the role of R — opts.Registers is not swept
// here; see CheckConstrainedSeed). Five invariants are asserted, all
// recomputed from liveness rather than trusted from the pipeline:
//
//  1. per-class pressure — at every point, at most cap(c) allocated values
//     of class c are live;
//  2. class membership — every allocated value holds a register of its own
//     class with an index inside the class capacity (and interfering values
//     never share one);
//  3. pre-coloring — every allocated pre-colored value holds exactly its
//     pin;
//  4. clobber avoidance — no value assigned a register a call clobbers is
//     live across that call;
//  5. semantics — the rewrite behaves like the original under the plain
//     interpreter AND under the clobber-modelling interpreter, which
//     tramples caller-saved registers at every call (so a clobber violation
//     that slipped past 4 would still surface as a miscompile).
func CheckConstrained(f *ir.Func, cons *arch.Constraints, opts Options) error {
	opts.fill()
	r := cons.Cap(ir.ClassGPR)
	fail := func(allocName string, input []int64, format string, args ...any) error {
		return &Failure{
			Func: f.Name, Allocator: allocName, R: r, Input: input,
			Detail: fmt.Sprintf("[machine=%s] %s", cons.Machine, fmt.Sprintf(format, args...)),
		}
	}
	orig := make([]*interp.Result, len(opts.Inputs))
	for i, in := range opts.Inputs {
		res, err := interp.Run(f, in, opts.Budget)
		if err != nil {
			return fail("-", in, "original function failed to execute: %v", err)
		}
		orig[i] = res
	}
	info := liveness.Compute(f)
	spans := regassign.LiveThroughCalls(info)

	for _, allocName := range opts.Allocators {
		a, err := core.AllocatorByName(allocName)
		if err != nil {
			return err
		}
		out, err := core.Run(f, core.Config{Registers: r, Allocator: a, Constraints: cons})
		if err != nil {
			return fail(allocName, nil, "pipeline: %v", err)
		}
		if err := checkClassPressure(info, out, cons); err != nil {
			return fail(allocName, nil, "%v", err)
		}
		if out.RegisterOf == nil {
			continue
		}
		if err := checkConstrainedAssignment(info, out, cons, spans); err != nil {
			return fail(allocName, nil, "%v", err)
		}
		for i, in := range opts.Inputs {
			res, err := interp.Run(out.Rewritten, in, opts.Budget)
			if err != nil {
				return fail(allocName, in, "rewritten function failed to execute: %v", err)
			}
			if d := orig[i].Diff(res); d != "" {
				return fail(allocName, in, "rewrite changed behaviour (spilled %v): %s",
					out.SpilledValues, d)
			}
			resC, err := interp.RunWithClobbers(out.Rewritten, in, opts.Budget, out.RegisterOf)
			if err != nil {
				return fail(allocName, in, "rewritten function failed under clobber modelling: %v", err)
			}
			if d := orig[i].Diff(resC); d != "" {
				return fail(allocName, in,
					"clobber modelling changed behaviour (a live value sits in a caller-saved register): %s", d)
			}
		}
	}
	return nil
}

// checkClassPressure re-derives invariant 1: at every program point, at most
// cap(c) allocated values of each class c are simultaneously live.
func checkClassPressure(info *liveness.Info, out *core.Outcome, cons *arch.Constraints) error {
	f := info.F
	allocated := allocatedValues(out)
	for _, p := range info.Points {
		var count [ir.NumClasses]int
		for _, v := range p.Live {
			if allocated[v] {
				count[f.ClassOf(v)]++
			}
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			if count[c] > cons.Cap(c) {
				return fmt.Errorf("allocated %s pressure %d > capacity %d at block %d point %d",
					c, count[c], cons.Cap(c), p.Block, p.Index)
			}
		}
	}
	return nil
}

// checkConstrainedAssignment re-derives invariants 2–4 from the per-point
// live sets: class membership and capacity, interference freedom, honored
// pre-colors, and no clobbered register held across its call.
func checkConstrainedAssignment(info *liveness.Info, out *core.Outcome,
	cons *arch.Constraints, spans []regassign.CallSpan) error {
	f := info.F
	allocated := allocatedValues(out)
	regOf := out.RegisterOf
	for v, al := range allocated {
		if !al {
			continue
		}
		reg := regOf[v]
		c := f.ClassOf(v)
		if reg < 0 || ir.RegClassOf(reg) != c {
			return fmt.Errorf("%s value %s got %s", c, f.NameOf(v), ir.RegName(reg))
		}
		if idx := ir.RegIndexOf(reg); idx >= cons.Cap(c) {
			return fmt.Errorf("value %s got %s outside class capacity %d",
				f.NameOf(v), ir.RegName(reg), cons.Cap(c))
		}
		if pin, ok := f.PreColorOf(v); ok && reg != pin {
			return fmt.Errorf("pre-colored value %s holds %s instead of %s",
				f.NameOf(v), ir.RegName(reg), ir.RegName(pin))
		}
	}
	seen := make(map[int]int)
	for _, p := range info.Points {
		for k := range seen {
			delete(seen, k)
		}
		for _, v := range p.Live {
			if !allocated[v] {
				continue
			}
			if prev, ok := seen[regOf[v]]; ok {
				return fmt.Errorf("values %s and %s share %s at block %d point %d",
					f.NameOf(prev), f.NameOf(v), ir.RegName(regOf[v]), p.Block, p.Index)
			}
			seen[regOf[v]] = v
		}
	}
	for _, span := range spans {
		ins := &f.Blocks[span.Block].Instrs[span.Index]
		for _, v := range span.Live {
			if !allocated[v] {
				continue
			}
			for _, ref := range ins.Clobbers {
				if regOf[v] == ref {
					return fmt.Errorf("value %s holds caller-saved %s across the call at block %d instr %d",
						f.NameOf(v), ir.RegName(ref), span.Block, span.Index)
				}
			}
		}
	}
	return nil
}

// SoakConstrained checks seeds [base, base+n) across all the given machines
// and returns up to maxFail failures; progress is reported through report if
// non-nil. The machine-constrained counterpart of Soak.
func SoakConstrained(base int64, n int, machines []arch.Machine, opts Options,
	maxFail int, report func(done int, failed int)) []*Failure {
	if maxFail <= 0 {
		maxFail = 1
	}
	if len(machines) == 0 {
		machines = DefaultMachines()
	}
	var fails []*Failure
	for i := 0; i < n; i++ {
		for _, m := range machines {
			err := CheckConstrainedSeed(base+int64(i), m, opts)
			if err == nil {
				continue
			}
			var f *Failure
			if errors.As(err, &f) {
				// Keep the machine/R context the seed wrapper added.
				f = &Failure{Func: f.Func, Allocator: f.Allocator, R: f.R,
					Input: f.Input, Detail: err.Error()}
			} else {
				f = &Failure{Func: fmt.Sprintf("seed%d", base+int64(i)), Detail: err.Error()}
			}
			fails = append(fails, f)
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
