// Package core is the high-level entry point of the layered register
// allocation library: it wires the full decoupled pipeline together —
// loop analysis, liveness, interference analysis, spill cost estimation,
// spill-everywhere allocation with a pluggable allocator, tree-scan register
// assignment, and spill-code insertion.
//
// Typical use:
//
//	f := ir.MustParse(src)
//	out, err := core.Run(f, core.Config{Registers: 8})
//	// out.Result: which values stay in registers
//	// out.RegisterOf: concrete register per value (SSA functions)
//	// out.Rewritten: the function with spill/reload code inserted
//
// Two interference representations back the pipeline. Strict-SSA functions
// take the IFG-free fast path: the clique structure the layered allocators
// need (live sets, def-point cliques, dominance elimination order) is
// derived straight from liveness by internal/cliques, and no interference
// graph is ever materialized unless an edge-based allocator (GC, Optimal,
// LH) asks for one. Non-SSA functions — and SSA functions with non-inert
// unreachable code, or any run with Config.LegacyIFG — build the explicit
// graph via internal/ifg as before. Both paths produce identical
// allocations (pinned by TestFastPathMatchesIFGPath).
//
// Lower-level control (custom cost models, direct graph problems) is
// available from the internal packages this one composes: alloc, cliques,
// ifg, liveness, spillcost, regassign.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/alloc/chaitin"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/alloc/optimal"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/raerr"
	"repro/internal/regassign"
	"repro/internal/spillcost"
)

// Config controls a pipeline run.
type Config struct {
	// Registers is the register count R (required, ≥ 1).
	Registers int
	// Allocator selects the allocation algorithm. Nil picks the paper's
	// best general-purpose chordal allocator (BFPL) for SSA functions and
	// the layered heuristic (LH) for non-SSA functions.
	Allocator alloc.Allocator
	// CostModel overrides the spill-cost estimate (zero value = default).
	CostModel spillcost.Model
	// SkipRewrite disables spill-code insertion and register assignment
	// (allocation decisions only).
	SkipRewrite bool
	// LegacyIFG forces the explicit interference-graph path even for
	// functions eligible for the IFG-free fast path. Diagnostics and the
	// fast-path differential tests only; results are identical either way.
	LegacyIFG bool
	// TrustedCostModel skips the per-function CostModel validation. Batch
	// drivers that validate the model once per module set this; leave it
	// false everywhere else.
	TrustedCostModel bool
	// Constraints, when non-nil, switches the pipeline to machine-constrained
	// allocation: values are allocated per register class against the
	// machine's class capacities, pre-colored values keep their ABI register,
	// and values live across clobbering calls avoid (or spill around) the
	// caller-saved registers. Requires strict SSA; see runConstrained.
	Constraints *arch.Constraints
	// Budget, when Active, bounds the run's resources: a wall-clock
	// deadline, a work-step budget charged cooperatively at analysis
	// granularity inside the hot loops, and a max-values/max-blocks
	// admission gate checked before any analysis runs. Enforcement is
	// cooperative — the metered stages (liveness, clique derivation,
	// layered/linear-scan allocation, assignment) stop at the next charge
	// point; an allocator that ignores Problem.Meter is only caught by the
	// wall-clock checks at stage boundaries.
	Budget budget.Limits
	// Coalescing enables coalescing-biased register assignment on the
	// IFG-free fast path: φ/copy-related values are grouped into affinity
	// classes (union-find; Conservative applies the Briggs criterion against
	// clique-membership degrees) and the tree-scan prefers an affine
	// partner's register when it is free — never at the cost of an extra
	// spill, and never changing which values are allocated. The zero value
	// (coalesce.Off) reproduces the unbiased pipeline byte-for-byte.
	// Incompatible with LegacyIFG; no-op for non-SSA functions and on
	// degraded rungs.
	Coalescing coalesce.Policy
	// Degrade converts a budget trip into a degraded-but-correct Outcome
	// instead of an error: the run falls down the ladder
	// layered → linear-scan → spill-all (each rung cheaper and itself
	// budget-checked; the spill-all floor is O(V) and never fails), and the
	// Outcome records the rung and reason in Degraded. With Degrade false a
	// trip surfaces as a *raerr.FuncError wrapping *raerr.BudgetError.
	Degrade bool
}

// Rung labels of the degradation ladder, recorded in Degradation.Rung.
const (
	// RungLinearScan: the configured allocator ran out of budget during
	// allocation or assignment; the result was recomputed by the DLS linear
	// scan under a fresh (small) step allowance.
	RungLinearScan = "linear-scan"
	// RungSpillAll: the floor — every occurring value is spilled. Reached
	// when the budget trips before the problem structure exists (admission,
	// liveness, cliques) or when the linear-scan rung itself fails.
	RungSpillAll = "spill-all"
)

// Degradation records how a budget-governed run fell down the ladder.
type Degradation struct {
	// Rung is the ladder rung that produced the outcome (RungLinearScan or
	// RungSpillAll).
	Rung string
	// Stage is the pipeline stage whose budget trip forced the fall (one of
	// the raerr.Stage* constants).
	Stage string
	// Reason is the budget violation that triggered the degradation.
	Reason *raerr.BudgetError
}

// Outcome bundles everything a client may want from one allocation run.
type Outcome struct {
	F *ir.Func
	// Build is the explicit interference-graph build; nil on the IFG-free
	// fast path (use Problem.Graph() to materialize one on demand).
	Build *ifg.Build
	// Cliques is the fast path's structure; nil on the legacy graph path.
	Cliques *cliques.Structure
	Problem *alloc.Problem
	Result  *alloc.Result
	// VertexOf/ValueOf translate between value IDs and problem vertices
	// (identical on both paths).
	VertexOf []int
	ValueOf  []int
	// SpilledValues lists the spilled value IDs, sorted.
	SpilledValues []int
	// SpillCost is the total cost of the spilled values.
	SpillCost float64
	// MaxLive is the peak register pressure before spilling.
	MaxLive int
	// RegisterOf maps value ID → register number (regassign.NoReg for
	// spilled values); only set for SSA functions when SkipRewrite is off.
	RegisterOf []int
	// Rewritten is the function with spill-everywhere code inserted; only
	// set for SSA functions when SkipRewrite is off.
	Rewritten *ir.Func
	// Coalesce, when non-nil, reports the effect of coalescing-biased
	// assignment on the function's φ/copy moves (total, eliminated and
	// residual dynamic move cost); set only when Config.Coalescing is on and
	// biased assignment ran (fast path, rewrite on, not degraded).
	Coalesce *coalesce.Stats
	// Degraded, when non-nil, records that the run exceeded its budget and
	// fell down the degradation ladder; the outcome is correct but of lower
	// spill quality than the configured allocator would have produced.
	// Degraded outcomes must not be cached (the trip point depends on
	// wall-clock time).
	Degraded *Degradation
	// BudgetSpent is the work-step total charged against the budget
	// (0 when the run carried no budget).
	BudgetSpent int64
}

// Runner executes the pipeline repeatedly, reusing the analysis scratch
// memory (liveness bitsets, clique-structure transients, assignment and
// rewrite scratch) across functions instead of reallocating it per call —
// the batch pipeline gives each worker one Runner. Outcomes never reference
// scratch memory, so they stay valid across subsequent Run calls; a Runner
// is not safe for concurrent use.
type Runner struct {
	live *liveness.Scratch
	cs   *cliques.Scratch
	ra   *regassign.Scratch
	// Cached default allocators: layered allocators reuse their own
	// internal scratch across calls, so the defaults are resolved once per
	// Runner rather than once per function.
	defaultChordal alloc.Allocator
	defaultGeneral alloc.Allocator
	// Reusable value-indexed flag slices for the rewrite stage.
	allocatedVals []bool
	spilledVals   []bool
	// Reusable spill-cost vector (BuildProblem copies what it keeps, so
	// the buffer never escapes into an Outcome).
	costs []float64
	// Affinity-construction scratch for coalescing-biased assignment.
	bias *coalesce.BiasScratch
	// The machine-constrained driver's state, created on first use.
	con *constrainedScratch
}

// NewRunner returns a Runner with empty scratch.
func NewRunner() *Runner {
	return &Runner{
		live:           liveness.NewScratch(),
		cs:             cliques.NewScratch(),
		ra:             regassign.NewScratch(),
		defaultChordal: layered.BFPL(),
		defaultGeneral: layered.NewLH(),
	}
}

// Run executes the decoupled register-allocation pipeline on f, reusing the
// runner's scratch.
func (r *Runner) Run(f *ir.Func, cfg Config) (*Outcome, error) {
	return run(f, cfg, r)
}

// Run executes the decoupled register-allocation pipeline on f.
func Run(f *ir.Func, cfg Config) (*Outcome, error) {
	return run(f, cfg, nil)
}

func run(f *ir.Func, cfg Config, runner *Runner) (*Outcome, error) {
	if cfg.Registers < 1 {
		return nil, fmt.Errorf("%w: Registers must be ≥ 1, got %d", raerr.ErrInvalidConfig, cfg.Registers)
	}
	if !cfg.TrustedCostModel {
		if err := cfg.CostModel.Validate(); err != nil {
			return nil, fmt.Errorf("%w: invalid cost model: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if cfg.Coalescing != coalesce.Off {
		if !cfg.Coalescing.Valid() {
			return nil, fmt.Errorf("%w: unknown coalescing policy %d", raerr.ErrInvalidConfig, cfg.Coalescing)
		}
		if cfg.LegacyIFG {
			return nil, fmt.Errorf("%w: coalescing-biased assignment requires the IFG-free fast path (unset LegacyIFG)",
				raerr.ErrInvalidConfig)
		}
	}
	if cfg.Constraints != nil {
		return runConstrained(f, cfg, runner)
	}
	dom, err := f.ValidateAnalyzed()
	if err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "validate",
			Err: fmt.Errorf("invalid input function: %w", err)}
	}
	m := budget.NewMeter(cfg.Budget)
	if be := cfg.Budget.Admit(f.NumValues, len(f.Blocks)); be != nil {
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

	// Interference analysis: clique structure straight from liveness for
	// strict SSA (the fast path), explicit graph otherwise.
	var build *ifg.Build
	var cs *cliques.Structure
	var p *alloc.Problem
	m.SetStage(raerr.StageCliques)
	if !cfg.LegacyIFG && cliques.Applicable(f, dom) {
		var scratch *cliques.Scratch
		if runner != nil {
			scratch = runner.cs
		}
		cs, err = cliques.DeriveBudget(info, dom, scratch, m)
		if err != nil {
			if !cfg.Degrade {
				return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageCliques, Err: err}
			}
			return spillAll(f, cfg, dom, info, m, m.BudgetErr())
		}
	}
	if cs != nil {
		p = alloc.BuildProblem(alloc.Spec{Cliques: cs, Costs: costs, R: cfg.Registers})
		p.Intervals = linearscan.IntervalsFromLiveness(info, cs.VertexOf, cs.N)
	} else {
		// The explicit-graph build has no internal metering; the stage
		// boundary's forced clock check keeps a deadline honest here.
		if !m.CheckNow() {
			if !cfg.Degrade {
				return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageCliques, Err: m.Err()}
			}
			return spillAll(f, cfg, dom, info, m, m.BudgetErr())
		}
		build = ifg.FromLiveness(info)
		p = alloc.BuildProblem(alloc.Spec{Build: build, Costs: costs, R: cfg.Registers, Dom: dom})
		p.Intervals = linearscan.BuildIntervals(info, build)
	}

	a := cfg.Allocator
	if a == nil {
		switch {
		case p.Chordal && runner != nil:
			a = runner.defaultChordal
		case p.Chordal:
			a = layered.BFPL()
		case runner != nil:
			a = runner.defaultGeneral
		default:
			a = layered.NewLH()
		}
	}
	if !p.Chordal && alloc.ChordalOnly(a.Name()) {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("%w: allocator %s requires a chordal (strict-SSA) instance",
				raerr.ErrNotSSA, a.Name())}
	}
	// Structural preconditions (chordality, intervals, option sanity) are
	// checked up front so a malformed problem surfaces as a typed error
	// instead of a panic from inside the algorithm.
	if c, ok := a.(alloc.ProblemChecker); ok {
		if err := c.CheckProblem(p); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate", Err: err}
		}
	}
	m.SetStage(raerr.StageAllocate)
	p.Meter = m
	res := a.Allocate(p)
	p.Meter = nil
	// A structurally malformed result (custom allocators) is a contract
	// violation, not a pressure failure — keep the taxonomy honest.
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
			Err: fmt.Errorf("%w: allocator %s returned an invalid allocation: %w",
				raerr.ErrPressureUnsatisfiable, a.Name(), err)}
	}
	// A metered allocator stopped at a charge boundary (its partial result
	// is valid but incomplete); an un-metered one is caught by the clock.
	if m.Exceeded() || !m.CheckNow() {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAllocate, Err: m.Err()}
		}
		return linearScanRung(f, cfg, runner, dom, info, build, cs, p, m)
	}

	out := outcomeFrom(f, build, cs, p, res)
	if !cfg.SkipRewrite && f.SSA && p.Chordal {
		m.SetStage(raerr.StageAssign)
		if ferr := assignAndRewrite(out, f, cfg, dom, info, runner, m); ferr != nil {
			if m.Exceeded() && cfg.Degrade {
				return linearScanRung(f, cfg, runner, dom, info, build, cs, p, m)
			}
			return nil, ferr
		}
	}
	out.BudgetSpent = m.Spent()
	return out, nil
}

// outcomeFrom assembles the Outcome common to every ladder rung: problem,
// result, vertex maps, spilled-value list and spill cost.
func outcomeFrom(f *ir.Func, build *ifg.Build, cs *cliques.Structure, p *alloc.Problem, res *alloc.Result) *Outcome {
	out := &Outcome{
		F:         f,
		Build:     build,
		Cliques:   cs,
		Problem:   p,
		Result:    res,
		SpillCost: res.SpillCost(p),
	}
	if cs != nil {
		out.VertexOf, out.ValueOf = cs.VertexOf, cs.ValueOf
		out.MaxLive = cs.MaxLive
	} else {
		out.VertexOf, out.ValueOf = build.VertexOf, build.ValueOf
		out.MaxLive = build.MaxLive
	}
	spilledCount := 0
	for _, al := range res.Allocated {
		if !al {
			spilledCount++
		}
	}
	if spilledCount > 0 {
		// ValueOf ascends with the vertex ID, so this list is born sorted.
		out.SpilledValues = make([]int, 0, spilledCount)
		for vx, al := range res.Allocated {
			if !al {
				out.SpilledValues = append(out.SpilledValues, out.ValueOf[vx])
			}
		}
	}
	return out
}

// assignAndRewrite runs tree-scan assignment, assignment verification and
// spill-code insertion for an SSA chordal outcome, charging the given meter
// (the run meter, or a rung sub-meter). On failure the returned error is a
// ready-to-surface *raerr.FuncError; a budget trip is detectable on the
// meter itself.
func assignAndRewrite(out *Outcome, f *ir.Func, cfg Config, dom *ir.Dominance, info *liveness.Info, runner *Runner, meter *budget.Meter) error {
	res := out.Result
	var allocatedVals, spilledVals []bool
	if runner != nil {
		runner.allocatedVals = resizeFlags(runner.allocatedVals, f.NumValues)
		runner.spilledVals = resizeFlags(runner.spilledVals, f.NumValues)
		allocatedVals, spilledVals = runner.allocatedVals, runner.spilledVals
	} else {
		allocatedVals = make([]bool, f.NumValues)
		spilledVals = make([]bool, f.NumValues)
	}
	for vx, al := range res.Allocated {
		if al {
			allocatedVals[out.ValueOf[vx]] = true
		}
	}
	var ra *regassign.Scratch
	if runner != nil {
		ra = runner.ra
	}
	// Coalescing-biased assignment: φ/copy moves and affinity classes come
	// straight from the function and the clique structure — no IFG. Degraded
	// rungs skip the bias (a budget-tripped run should not buy move quality
	// with extra analysis); bias never changes the allocated set, so the
	// spill decisions above are untouched either way.
	var bias *regassign.Bias
	var moves []coalesce.VMove
	var aff *coalesce.Affinity
	if cfg.Coalescing != coalesce.Off && out.Cliques != nil && out.Degraded == nil {
		moves = coalesce.MovesFromFunc(f, cfg.CostModel)
		if len(moves) > 0 {
			var sc *coalesce.BiasScratch
			if runner != nil {
				if runner.bias == nil {
					runner.bias = &coalesce.BiasScratch{}
				}
				sc = runner.bias
			}
			aff = coalesce.BuildAffinity(out.Cliques, moves, cfg.Coalescing, cfg.Registers, sc)
			if aff != nil {
				bias = regassign.NewBias(aff.ClassOf, aff.NumClasses)
			}
		}
	}
	regOf, err := regassign.AssignBiasedBudget(f, dom, info, allocatedVals, cfg.Registers, ra, meter, bias)
	if err != nil {
		if meter.Exceeded() {
			return &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: err}
		}
		return &raerr.FuncError{Func: f.Name, Stage: "assign",
			Err: fmt.Errorf("%w: assignment after allocation failed: %w",
				raerr.ErrPressureUnsatisfiable, err)}
	}
	if err := regassign.VerifyAssignment(info, allocatedVals, regOf); err != nil {
		return &raerr.FuncError{Func: f.Name, Stage: "assign",
			Err: fmt.Errorf("assignment verification failed: %w", err)}
	}
	out.RegisterOf = regOf
	if cfg.Coalescing != coalesce.Off && out.Cliques != nil && out.Degraded == nil {
		out.Coalesce = coalesce.StatsFor(cfg.Coalescing, moves, regOf, aff)
	}
	for _, v := range out.SpilledValues {
		spilledVals[v] = true
	}
	out.Rewritten = regassign.InsertSpillCode(f, spilledVals)
	if len(out.SpilledValues) > 0 {
		// With no spills the rewrite is a plain clone of the function
		// validated above; re-validating it would just recompute
		// dominance for nothing.
		if err := out.Rewritten.Validate(); err != nil {
			return &raerr.FuncError{Func: f.Name, Stage: "rewrite",
				Err: fmt.Errorf("spill-code rewrite broke the function: %w", err)}
		}
	}
	return nil
}

// linearScanRung is the middle rung of the degradation ladder: the
// configured allocator ran out of budget during allocation or assignment,
// so the allocation is redone by the DLS linear scan under a fresh, small
// step allowance (the scan is O(n log n); the allowance only matters when
// the shared wall-clock deadline is already near). Any failure inside the
// rung — no intervals to scan, an invalid result, an assignment trip —
// falls through to the spill-all floor.
func linearScanRung(f *ir.Func, cfg Config, runner *Runner, dom *ir.Dominance, info *liveness.Info, build *ifg.Build, cs *cliques.Structure, p *alloc.Problem, m *budget.Meter) (*Outcome, error) {
	trip := m.BudgetErr()
	if p.Intervals == nil {
		return spillAll(f, cfg, dom, info, m, trip)
	}
	rm := m.Rung(32*int64(p.N()) + 1024)
	rm.SetStage(raerr.StageAllocate)
	p.Meter = rm
	res := linearscan.DLS().Allocate(p)
	p.Meter = nil
	if err := p.Validate(res); err != nil {
		m.AddSpent(rm.Spent())
		return spillAll(f, cfg, dom, info, m, trip)
	}
	out := outcomeFrom(f, build, cs, p, res)
	out.Degraded = &Degradation{Rung: RungLinearScan, Stage: trip.Stage, Reason: trip}
	if !cfg.SkipRewrite && f.SSA && p.Chordal {
		rm.SetStage(raerr.StageAssign)
		if ferr := assignAndRewrite(out, f, cfg, dom, info, runner, rm); ferr != nil {
			m.AddSpent(rm.Spent())
			return spillAll(f, cfg, dom, info, m, trip)
		}
	}
	m.AddSpent(rm.Spent())
	out.BudgetSpent = m.Spent()
	return out, nil
}

// spillAll is the floor of the degradation ladder: every value occurring in
// reachable code is spilled. It needs no liveness, no interference
// structure and no assignment — O(V) work — so it succeeds under any
// budget; the trip that forced the fall is recorded in Degraded. info may
// be nil (an admission or liveness trip happens before liveness exists), in
// which case MaxLive is reported as 0.
func spillAll(f *ir.Func, cfg Config, dom *ir.Dominance, info *liveness.Info, m *budget.Meter, trip *raerr.BudgetError) (*Outcome, error) {
	nv := f.NumValues
	occurs := make([]bool, nv)
	mark := func(v int) {
		if v >= 0 && v < nv {
			occurs[v] = true
		}
	}
	for _, b := range f.Blocks {
		if dom.Order[b.ID] < 0 {
			continue // unreachable code contributes no problem values
		}
		for _, ins := range b.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				mark(ins.Def)
			}
			for _, u := range ins.Uses {
				mark(u)
			}
		}
	}
	// Dense vertex numbering ascending by value ID — the same ordering the
	// analysis paths use, so vertex↔value maps stay interchangeable.
	vertexOf := make([]int, nv)
	for i := range vertexOf {
		vertexOf[i] = -1
	}
	valueOf := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if occurs[v] {
			vertexOf[v] = len(valueOf)
			valueOf = append(valueOf, v)
		}
	}
	f.ComputeLoops(dom)
	costs := spillcost.Costs(f, cfg.CostModel)
	w := make([]float64, len(valueOf))
	for vx, val := range valueOf {
		w[vx] = costs[val]
	}
	// A literal Problem: no live sets means Validate is trivially satisfied,
	// which is exact — with nothing allocated, no pressure constraint can
	// bind.
	p := &alloc.Problem{R: cfg.Registers, Weight: w, Name: f.Name}
	res := &alloc.Result{Allocated: make([]bool, len(valueOf)), Allocator: "spill-all"}
	out := &Outcome{
		F:             f,
		Problem:       p,
		Result:        res,
		VertexOf:      vertexOf,
		ValueOf:       valueOf,
		SpilledValues: append([]int(nil), valueOf...),
		SpillCost:     res.SpillCost(p),
	}
	if info != nil {
		out.MaxLive = info.MaxLive
	}
	if trip != nil {
		out.Degraded = &Degradation{Rung: RungSpillAll, Stage: trip.Stage, Reason: trip}
	}
	if !cfg.SkipRewrite && f.SSA {
		regOf := make([]int, nv)
		for i := range regOf {
			regOf[i] = regassign.NoReg
		}
		out.RegisterOf = regOf
		out.Rewritten = regassign.InsertSpillCode(f, occurs)
		if len(valueOf) > 0 {
			if err := out.Rewritten.Validate(); err != nil {
				return nil, &raerr.FuncError{Func: f.Name, Stage: "rewrite",
					Err: fmt.Errorf("spill-all rewrite broke the function: %w", err)}
			}
		}
	}
	out.BudgetSpent = m.Spent()
	return out, nil
}

// resizeFlags returns s resized to n with every flag cleared.
func resizeFlags(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// The paper's allocators, registered once at init into the shared registry
// (internal/alloc); the public regalloc.Register adds external ones to the
// same table. NL/BL/FPL/BFPL are chordal-only: they require a strict-SSA
// (chordal) instance and the pipeline rejects them on anything else with a
// typed raerr.ErrNotSSA.
func init() {
	alloc.MustRegisterAllocator("NL", true, func() alloc.Allocator { return layered.NL() })
	alloc.MustRegisterAllocator("BL", true, func() alloc.Allocator { return layered.BL() })
	alloc.MustRegisterAllocator("FPL", true, func() alloc.Allocator { return layered.FPL() })
	alloc.MustRegisterAllocator("BFPL", true, func() alloc.Allocator { return layered.BFPL() })
	alloc.MustRegisterAllocator("LH", false, func() alloc.Allocator { return layered.NewLH() })
	alloc.MustRegisterAllocator("GC", false, func() alloc.Allocator { return chaitin.New() })
	alloc.MustRegisterAllocator("DLS", false, func() alloc.Allocator { return linearscan.DLS() })
	alloc.MustRegisterAllocator("BLS", false, func() alloc.Allocator { return linearscan.BLS() })
	alloc.MustRegisterAllocator("Optimal", false, func() alloc.Allocator { return optimal.New() })
}

// AllocatorByName resolves a registered allocator name (case-insensitive) to
// a fresh instance: the paper's NL, BL, FPL, BFPL, LH, GC, DLS, BLS and
// Optimal, plus anything added through the registry. Unknown names fail with
// raerr.ErrUnknownAllocator.
func AllocatorByName(name string) (alloc.Allocator, error) {
	return alloc.NewByName(name)
}

// AllocatorNames lists the registered allocator names, sorted.
func AllocatorNames() []string {
	return alloc.RegisteredNames()
}
