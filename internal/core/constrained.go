package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/alloc"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/raerr"
	"repro/internal/regassign"
	"repro/internal/spillcost"
)

// runConstrained is the machine-honoring pipeline: allocation under register
// classes, pre-colored ABI values, and call-clobber sets.
//
// The decoupled framework survives the constraints almost intact. Spilling
// stays a per-class pressure problem: the subgraph induced by one register
// class is chordal again (induced subgraphs of chordal graphs are chordal,
// and a subsequence of a perfect elimination order eliminates it perfectly),
// so each class is allocated independently against its own capacity by the
// same allocators as the fungible path. What the chordal model cannot
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
// failure, which the driver force-spills before retrying (sound under
// spill-everywhere, and bounded by the value count).
func runConstrained(f *ir.Func, cfg Config, runner *Runner) (*Outcome, error) {
	cons := cfg.Constraints
	if err := cons.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
	}
	if cfg.LegacyIFG {
		return nil, fmt.Errorf("%w: machine-constrained allocation has no explicit-graph path (unset LegacyIFG)",
			raerr.ErrInvalidConfig)
	}
	var caps [ir.NumClasses]int
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		caps[c] = cons.Cap(c)
		if caps[c] > 64 {
			return nil, fmt.Errorf("%w: class %s capacity %d exceeds the constrained assigner's 64-register limit",
				raerr.ErrInvalidConfig, c, caps[c])
		}
	}
	dom, err := f.ValidateAnalyzed()
	if err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "validate",
			Err: fmt.Errorf("invalid input function: %w", err)}
	}
	if !f.SSA {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: machine-constrained allocation requires strict SSA", raerr.ErrNotSSA)}
	}
	switch reason := cliques.Inapplicable(f, dom); reason {
	case cliques.ReasonApplicable, cliques.ReasonConstrained:
	default:
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: %s", raerr.ErrNotSSA, reason)}
	}

	// Per-function scratch: the Runner's when there is one. Nothing below
	// that lives in it reaches the Outcome.
	var sc *constrainedScratch
	var csScratch *cliques.Scratch
	var ra *regassign.Scratch
	if runner != nil {
		if runner.con == nil {
			runner.con = &constrainedScratch{}
		}
		sc, csScratch, ra = runner.con, runner.cs, runner.ra
	} else {
		sc, csScratch, ra = &constrainedScratch{}, cliques.NewScratch(), regassign.NewScratch()
	}
	nv := f.NumValues
	rc := sc.reset(f, caps)
	if err := checkMachineCompat(f, cons, rc); err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain", Err: err}
	}

	// Budget governance. The constrained ladder has no linear-scan rung —
	// the interval scan is blind to pins and clobbers — so a trip anywhere
	// degrades straight to the spill-all floor, which is trivially legal
	// here too (the normal path already force-spills pinned values when
	// their constraints admit no register).
	m := budget.NewMeter(cfg.Budget)
	if be := cfg.Budget.Admit(nv, len(f.Blocks)); be != nil {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "admission", Err: be}
		}
		return spillAll(f, cfg, dom, nil, m, be)
	}

	f.ComputeLoops(dom)
	m.SetStage(raerr.StageLiveness)
	var info *liveness.Info
	if runner != nil {
		info, err = runner.live.ComputeBudget(f, m)
	} else {
		info, err = liveness.ComputeBudget(f, m)
	}
	if err != nil {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageLiveness, Err: err}
		}
		return spillAll(f, cfg, dom, nil, m, m.BudgetErr())
	}
	var costs []float64
	if runner != nil {
		runner.costs = spillcost.CostsInto(runner.costs, f, cfg.CostModel)
		costs = runner.costs
	} else {
		costs = spillcost.Costs(f, cfg.CostModel)
	}

	m.SetStage(raerr.StageCliques)
	cs, derr := cliques.DeriveBudget(info, dom, csScratch, m)
	if derr != nil {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageCliques, Err: derr}
		}
		return spillAll(f, cfg, dom, info, m, m.BudgetErr())
	}
	if cs == nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: clique-structure derivation failed", raerr.ErrNotSSA)}
	}

	classes, pins, forced, forbid := rc.Class, rc.Pins, sc.forced, rc.Forbid
	callSpans := ra.LiveThroughCalls(info)

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
		if forced[v] || cs.VertexOf[v] < 0 || pins[v] != regassign.NoReg {
			continue
		}
		if ^forbid[v]&capMask(caps[classes[v]]) == 0 {
			forced[v] = true
		}
	}

	// The merged problem the per-class results must satisfy together. Its
	// intervals are computed once; a value's interval does not depend on the
	// subset it is allocated in, so each class projects them.
	pFull := alloc.BuildProblem(alloc.Spec{Cliques: cs, Costs: costs, R: cfg.Registers, Constraints: cons})
	pFull.Intervals = linearscan.IntervalsFromLiveness(info, cs.VertexOf, cs.N)

	// Spilling: one chordal subproblem per register class, each against its
	// own capacity, solved by the same allocator the fungible path would use.
	// The class's structure is a projection of the function's one clique
	// structure.
	a := cfg.Allocator
	if a == nil {
		if runner != nil {
			a = runner.defaultChordal
		} else {
			a = layered.BFPL()
		}
	}
	var allocatedVals, spilledVals []bool
	if runner != nil {
		runner.allocatedVals = resizeFlags(runner.allocatedVals, nv)
		runner.spilledVals = resizeFlags(runner.spilledVals, nv)
		allocatedVals, spilledVals = runner.allocatedVals, runner.spilledVals
	} else {
		allocatedVals, spilledVals = make([]bool, nv), make([]bool, nv)
	}
	include := sc.include
	m.SetStage(raerr.StageAllocate)
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if caps[c] == 0 {
			continue // compat check: no value has this class
		}
		// One charge per class pass covers the include-mask sweep and the
		// projection; the allocator itself charges per layer.
		if !m.Charge(nv) {
			if !cfg.Degrade {
				return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAllocate, Err: m.Err()}
			}
			return spillAll(f, cfg, dom, info, m, m.BudgetErr())
		}
		any := false
		for v := range include {
			inc := cs.VertexOf[v] >= 0 && !forced[v] && classes[v] == c
			include[v] = inc
			any = any || inc
		}
		if !any {
			continue
		}
		p := sc.classProblem(cs, cs.Project(include, &sc.sub[c], csScratch), pFull, caps[c])
		if chk, ok := a.(alloc.ProblemChecker); ok {
			if err := chk.CheckProblem(p); err != nil {
				return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate", Err: err}
			}
		}
		p.Meter = m
		res := a.Allocate(p)
		p.Meter = nil
		if res == nil || len(res.Allocated) != p.N() {
			got := -1
			if res != nil {
				got = len(res.Allocated)
			}
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
				Err: fmt.Errorf("allocator %s returned a malformed result: %d of %d vertices covered",
					a.Name(), got, p.N())}
		}
		if err := p.Validate(res); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
				Err: fmt.Errorf("%w: allocator %s returned an invalid %s allocation: %w",
					raerr.ErrPressureUnsatisfiable, a.Name(), c, err)}
		}
		for vx, al := range res.Allocated {
			if al {
				allocatedVals[p.Cliques.ValueOf[vx]] = true
			}
		}
	}
	if m.Exceeded() || !m.CheckNow() {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAllocate, Err: m.Err()}
		}
		return spillAll(f, cfg, dom, info, m, m.BudgetErr())
	}

	// Assignment with the force-spill retry loop, before the Outcome's spill
	// bookkeeping (a retry shrinks the allocated set).
	var regOf []int
	var coalStats *coalesce.Stats
	if !cfg.SkipRewrite {
		// Coalescing bias, built per register class against the class
		// capacity (endpoints of different classes can never share a
		// register). Pins seed the class hints, so copy chains rooted at an
		// ABI register chase the pin.
		var bias *regassign.Bias
		var moves []coalesce.VMove
		var aff *coalesce.Affinity
		if cfg.Coalescing != coalesce.Off {
			moves = sc.bias.Moves(f, cfg.CostModel)
			if len(moves) > 0 {
				aff = coalesce.BuildAffinityConstrained(cs, f, moves, cfg.Coalescing, caps, &sc.bias)
				if aff != nil {
					sc.hints.Reset(aff.ClassOf, aff.NumClasses)
					bias = &sc.hints
				}
			}
		}
		m.SetStage(raerr.StageAssign)
		regOf = make([]int, nv)
		for tries := 0; ; tries++ {
			// The constrained assigner is not internally metered; one charge
			// per attempt bounds the O(V) force-spill retry loop.
			if !m.Charge(nv) {
				if !cfg.Degrade {
					return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: m.Err()}
				}
				return spillAll(f, cfg, dom, info, m, m.BudgetErr())
			}
			stuck, aerr := ra.AssignConstrained(f, dom, info, allocatedVals, rc, bias, regOf)
			if aerr == nil && stuck.Val < 0 {
				break
			}
			if bias != nil {
				// Bias must never cost a spill: pin collisions can make a
				// hint-following scan fail where the lowest-admissible one
				// succeeds, so the first failed biased attempt retries
				// unbiased — before any force-spill — keeping the spill set
				// identical to the unbiased pipeline's.
				bias = nil
				continue
			}
			if aerr != nil || !allocatedVals[stuck.Val] || tries >= nv {
				if aerr == nil {
					aerr = stuck.Err(f)
				}
				return nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
					Err: fmt.Errorf("%w: constrained assignment failed: %w",
						raerr.ErrPressureUnsatisfiable, aerr)}
			}
			allocatedVals[stuck.Val] = false
		}
		if cfg.Coalescing != coalesce.Off {
			coalStats = coalesce.StatsFor(cfg.Coalescing, moves, regOf, aff)
		}
		if err := regassign.VerifyAssignment(info, allocatedVals, regOf); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
				Err: fmt.Errorf("assignment verification failed: %w", err)}
		}
		if err := regassign.VerifyClassAssignment(f, allocatedVals, regOf, rc); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
				Err: fmt.Errorf("assignment verification failed: %w", err)}
		}
		for i := range callSpans {
			span := &callSpans[i]
			for _, v := range span.Live {
				if allocatedVals[v] && span.Clobbers(regOf[v]) {
					return nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
						Err: fmt.Errorf("value %s holds caller-saved %s across a clobbering call",
							f.NameOf(v), ir.RegName(regOf[v]))}
				}
			}
		}
	}

	merged := &alloc.Result{Allocated: make([]bool, cs.N), Allocator: a.Name()}
	spilled := 0
	for vx := range merged.Allocated {
		merged.Allocated[vx] = allocatedVals[cs.ValueOf[vx]]
		if !merged.Allocated[vx] {
			spilled++
		}
	}
	if err := pFull.ValidateClasses(merged, classes); err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("%w: merged constrained allocation invalid: %w",
				raerr.ErrPressureUnsatisfiable, err)}
	}
	out := &Outcome{
		F: f, Cliques: cs, Problem: pFull, Result: merged,
		VertexOf: cs.VertexOf, ValueOf: cs.ValueOf, MaxLive: cs.MaxLive,
		SpillCost: merged.SpillCost(pFull),
	}
	if spilled > 0 {
		out.SpilledValues = make([]int, 0, spilled)
		for vx, al := range merged.Allocated {
			if !al {
				out.SpilledValues = append(out.SpilledValues, cs.ValueOf[vx])
			}
		}
	}

	if !cfg.SkipRewrite {
		out.RegisterOf = regOf
		out.Coalesce = coalStats
		for _, v := range out.SpilledValues {
			spilledVals[v] = true
		}
		out.Rewritten = regassign.InsertSpillCode(f, spilledVals)
		if len(out.SpilledValues) > 0 {
			if err := out.Rewritten.Validate(); err != nil {
				return nil, &raerr.FuncError{Func: f.Name, Stage: "rewrite",
					Err: fmt.Errorf("spill-code rewrite broke the function: %w", err)}
			}
		}
	}
	out.BudgetSpent = m.Spent()
	return out, nil
}

// constrainedScratch is the Runner's reusable memory for runConstrained.
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
	bias      coalesce.BiasScratch
	hints     regassign.Bias
}

// reset sizes the value-indexed state for f and fills the classes and pins
// from its annotations; it returns the scan constraints over them.
func (sc *constrainedScratch) reset(f *ir.Func, caps [ir.NumClasses]int) *regassign.Constraints {
	nv := f.NumValues
	rc := &sc.cons
	rc.Caps = caps
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
