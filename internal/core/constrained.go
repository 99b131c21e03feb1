package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/raerr"
	"repro/internal/regassign"
)

// The machine-only half of the driver: allocation under register classes,
// pre-colored ABI values, and call-clobber sets.
//
// The decoupled framework survives the constraints almost intact. Spilling
// stays a per-class pressure problem: the subgraph induced by one register
// class is chordal again (induced subgraphs of chordal graphs are chordal,
// and a subsequence of a perfect elimination order eliminates it perfectly),
// so each class is allocated independently against its own capacity by the
// same allocators as a run without a machine. What the chordal model cannot
// express — a value that must hold one specific register, a register a call
// destroys mid-range — is folded into three precomputed side inputs:
//
//   - forced spills: values whose constraints admit no register at all (a
//     pin clobbered by a spanned call, per-call per-class pressure above the
//     call-surviving capacity, a forbid mask covering the whole class);
//   - pins: the fixed register of each pre-colored value;
//   - forbid masks: per-value sets of banned within-class register indexes
//     (clobbered registers of spanned calls, the pin of every interfering
//     pre-colored value).
//
// Assignment then honors all three, and — because pins can still collide in
// ways pressure numbers do not see — reports the first stuck value on
// failure, which the driver force-spills before retrying.

// checkMachine validates the machine of a run before any function analysis.
func checkMachine(cons *arch.Constraints) error {
	if err := cons.Validate(); err != nil {
		return fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		// Forbid masks are one word per value.
		if n := cons.Cap(c); n > 64 {
			return fmt.Errorf("%w: class %s capacity %d exceeds the constrained assigner's 64-register limit",
				raerr.ErrInvalidConfig, c, n)
		}
	}
	return nil
}

// constrain checks that f is a strict-SSA function the machine can express
// and loads its classes and pins into the scan constraints d.rc.
func (r *Runner) constrain(d *run, reason cliques.Reason) error {
	f := d.f
	if !f.SSA {
		return &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: machine-constrained allocation requires strict SSA", raerr.ErrNotSSA)}
	}
	if reason != cliques.ReasonApplicable && reason != cliques.ReasonConstrained {
		return &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: %s", raerr.ErrNotSSA, reason)}
	}
	d.rc = r.con.reset(f, d.cfg.Constraints)
	if err := checkMachineCompat(f, d.cfg.Constraints, d.rc); err != nil {
		return &raerr.FuncError{Func: f.Name, Stage: "constrain", Err: err}
	}
	return nil
}

// allocateClasses is a machine run's allocation stage: the forced spills,
// then one chordal subproblem per register class against its own capacity,
// solved by a over a projection of the function's one clique structure. It
// returns the merged result over d.p. A budget trip ends the class loop
// early; the caller finds it on the meter.
func (r *Runner) allocateClasses(d *run, a alloc.Allocator) (*alloc.Result, error) {
	r.forceSpills(d)
	sc, cs, nv := &r.con, d.cs, d.f.NumValues
	r.allocatedVals = resizeFlags(r.allocatedVals, nv)
	allocated, include := r.allocatedVals, sc.include
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if d.rc.Caps[c] == 0 {
			continue // compat check: no value has this class
		}
		// One charge per class pass covers the include-mask sweep and the
		// projection; the allocator itself charges per layer.
		if !d.m.Charge(nv) {
			break
		}
		any := false
		for v := range include {
			inc := cs.VertexOf[v] >= 0 && !sc.forced[v] && d.rc.Class[v] == c
			include[v] = inc
			any = any || inc
		}
		if !any {
			continue
		}
		p := sc.classProblem(cs, cs.Project(include, &sc.sub[c], r.cs), d.p, d.rc.Caps[c])
		res, err := r.allocate(d, a, p)
		if err != nil {
			return nil, err
		}
		for vx, al := range res.Allocated {
			if al {
				allocated[p.Cliques.ValueOf[vx]] = true
			}
		}
	}
	merged := &alloc.Result{Allocated: make([]bool, cs.N), Allocator: a.Name()}
	for vx := range merged.Allocated {
		merged.Allocated[vx] = allocated[cs.ValueOf[vx]]
	}
	return merged, nil
}

// forceSpills marks the values whose machine constraints admit no register
// and fills the forbid masks of the others, over the function's clobbering
// calls (which it stores in d.spans).
func (r *Runner) forceSpills(d *run) {
	sc, info, costs, nv := &r.con, d.info, r.costs, d.f.NumValues
	classes, pins, forced, forbid, caps := d.rc.Class, d.rc.Pins, sc.forced, d.rc.Forbid, &d.rc.Caps
	d.spans = r.ra.LiveThroughCalls(info)
	callSpans := d.spans

	// Pass 1 — a pre-colored value whose pin a spanned call clobbers cannot
	// keep its register across that call: forced spill.
	for i := range callSpans {
		span := &callSpans[i]
		for _, v := range span.Live {
			if span.Clobbers(pins[v]) {
				forced[v] = true
			}
		}
	}

	// Pass 2 — pre-color interference. A pinned value owns its register for
	// its whole live range, so every interfering value of the same class is
	// banned from that index; two interfering values pinned to the same
	// register are mutually exclusive, and the cheaper one spills. The
	// program-point live sets cover every interference edge, so scanning
	// points finds every such pair.
	for pi := range info.Points {
		live := info.Points[pi].Live
		for _, pv := range live {
			pin := pins[pv]
			if pin == regassign.NoReg || forced[pv] {
				continue
			}
			c, idx := ir.RegClassOf(pin), ir.RegIndexOf(pin)
			for _, v := range live {
				if v == pv || classes[v] != c {
					continue
				}
				switch {
				case pins[v] == pin && !forced[v]:
					loser := v
					if costs[pv] < costs[v] || (costs[pv] == costs[v] && pv > v) {
						loser = pv
					}
					forced[loser] = true
				case pins[v] == regassign.NoReg:
					forbid[v] |= 1 << uint(idx)
				}
			}
			// A pv that lost its pin here leaves the scan over this point
			// running: the other pinned values live here still ban their
			// registers.
		}
	}

	// Pass 3 — per-call class pressure. A call leaves cap − |clobbered ∩
	// [0,cap)| registers of each class for the values that live through it;
	// beyond that the cheapest survivors spill.
	for i := range callSpans {
		span := &callSpans[i]
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			cand := sc.cand[:0]
			for _, v := range span.Live {
				if !forced[v] && classes[v] == c {
					cand = append(cand, v)
				}
			}
			sc.cand = cand
			avail := caps[c] - bits.OnesCount64(span.Clobbered[c]&capMask(caps[c]))
			if len(cand) <= avail {
				continue
			}
			slices.SortFunc(cand, func(a, b int) int {
				if costs[a] != costs[b] {
					return cmp.Compare(costs[a], costs[b])
				}
				return a - b
			})
			for _, v := range cand[:len(cand)-avail] {
				forced[v] = true
			}
		}
	}

	// Pass 4 — clobber avoidance for the surviving spanning values, then a
	// final sweep for values whose accumulated bans (e.g. the union of two
	// calls' disjoint clobber sets) cover the whole class.
	for i := range callSpans {
		span := &callSpans[i]
		for _, v := range span.Live {
			if !forced[v] {
				forbid[v] |= span.Clobbered[classes[v]]
			}
		}
	}
	for v := 0; v < nv; v++ {
		if forced[v] || d.cs.VertexOf[v] < 0 || pins[v] != regassign.NoReg {
			continue
		}
		if ^forbid[v]&capMask(caps[classes[v]]) == 0 {
			forced[v] = true
		}
	}
}

// constrainedScratch is the Runner's reusable memory for machine runs.
// Outcomes never reference it.
type constrainedScratch struct {
	cons    regassign.Constraints // dense classes, pins, forbid masks
	forced  []bool
	include []bool
	// Per-class chordal subproblems: the projected structures, and the
	// weights and intervals projected from the merged problem.
	sub       [ir.NumClasses]cliques.Structure
	weight    []float64
	intervals [][2]int
	cand      []int // pass 3: one class's survivors of one call
}

// reset sizes the value-indexed state for f and fills the capacities,
// classes and pins from the machine and f's annotations; it returns the
// scan constraints over them.
func (sc *constrainedScratch) reset(f *ir.Func, cons *arch.Constraints) *regassign.Constraints {
	nv := f.NumValues
	rc := &sc.cons
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		rc.Caps[c] = cons.Cap(c)
	}
	rc.Class = resize(rc.Class, nv)
	clear(rc.Class) // ClassGPR is the zero class
	for v, c := range f.ValueClass {
		rc.Class[v] = c
	}
	rc.Pins = resize(rc.Pins, nv)
	for v := range rc.Pins {
		rc.Pins[v] = regassign.NoReg
	}
	for v, pin := range f.PreColor {
		rc.Pins[v] = pin
	}
	rc.Forbid = resize(rc.Forbid, nv)
	clear(rc.Forbid)
	sc.forced = resizeFlags(sc.forced, nv)
	sc.include = resize(sc.include, nv)
	return rc
}

// classProblem builds the allocation problem of one register class over its
// projected structure sub, with weights and intervals projected from the
// merged problem pFull over cs. It lives in scratch and is valid until the
// next class.
func (sc *constrainedScratch) classProblem(cs, sub *cliques.Structure, pFull *alloc.Problem, capacity int) *alloc.Problem {
	sc.weight = resize(sc.weight, sub.N)
	sc.intervals = resize(sc.intervals, sub.N)
	for vx, val := range sub.ValueOf {
		full := cs.VertexOf[val]
		sc.weight[vx] = pFull.Weight[full]
		sc.intervals[vx] = pFull.Intervals[full]
	}
	return &alloc.Problem{
		R: capacity, Weight: sc.weight, LiveSets: sub.Sets, Chordal: true, PEO: sub.PEO,
		Name: cs.F.Name, Intervals: sc.intervals, Cliques: sub,
	}
}

// checkMachineCompat rejects annotations the machine cannot express: a value
// of an absent register class, or a pre-color outside the class capacity.
// It reports the lowest offending value.
func checkMachineCompat(f *ir.Func, cons *arch.Constraints, rc *regassign.Constraints) error {
	for v, c := range rc.Class {
		if cons.Cap(c) == 0 {
			return fmt.Errorf("%w: %s is %s but machine %q has no %s registers",
				raerr.ErrMachineMismatch, f.NameOf(v), c, cons.Machine, c)
		}
		if pin := rc.Pins[v]; pin != regassign.NoReg {
			c := ir.RegClassOf(pin)
			if ir.RegIndexOf(pin) >= cons.Cap(c) {
				return fmt.Errorf("%w: %s is pre-colored %s but machine %q caps %s at %d registers",
					raerr.ErrMachineMismatch, f.NameOf(v), ir.RegName(pin), cons.Machine, c, cons.Cap(c))
			}
		}
	}
	return nil
}

// resize returns s with length n, reusing its memory when large enough; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// capMask returns the bitmask of the register indexes [0, cap).
func capMask(cap int) uint64 {
	if cap >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(cap) - 1
}
