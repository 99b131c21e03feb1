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
// One driver runs every configuration. A run without a machine is the
// one-class case of a machine-constrained run: one GPR class of capacity R,
// no pins, no clobbers. Both share validation, admission, loop analysis,
// liveness, spill costs, the interference structure, the tree-scan and its
// verification, the rewrite and the degradation ladder; only a machine run
// adds the forced-spill passes and allocates each register class over a
// projection of the function's clique structure.
//
// Two interference representations back the pipeline. Strict-SSA functions
// take the IFG-free fast path: the clique structure the layered allocators
// need (live sets, def-point cliques, dominance elimination order) is
// derived straight from liveness by internal/cliques, and no interference
// graph is ever materialized unless an edge-based allocator (GC, Optimal,
// LH) asks for one. Non-SSA functions — and SSA functions with non-inert
// unreachable code — build the explicit graph via internal/ifg. Both paths
// produce identical allocations (pinned by TestFastPathMatchesIFGPath).
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
	// Registers is the register count R (required, 1 ≤ R ≤ 4096).
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
	// TrustedCostModel skips the per-function CostModel validation. Batch
	// drivers that validate the model once per module set this; leave it
	// false everywhere else.
	TrustedCostModel bool
	// Constraints, when non-nil, switches the pipeline to machine-constrained
	// allocation: values are allocated per register class against the
	// machine's class capacities, pre-colored values keep their ABI register,
	// and values live across clobbering calls avoid (or spill around) the
	// caller-saved registers. Requires strict SSA.
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
	// (coalesce.Off) reproduces the unbiased pipeline byte-for-byte. No-op
	// for non-SSA functions and on degraded rungs.
	Coalescing coalesce.Policy
	// Degrade converts a budget trip into a degraded-but-correct Outcome
	// instead of an error: the run falls down the ladder
	// layered → linear-scan → spill-all (each rung cheaper and itself
	// budget-checked; the spill-all floor is O(V) and never fails), and the
	// Outcome records the rung and reason in Degraded. With Degrade false a
	// trip surfaces as a *raerr.FuncError wrapping *raerr.BudgetError.
	Degrade bool

	// legacyIFG forces the explicit interference-graph path on a run
	// without a machine: the oracle of the fast-path differential tests.
	legacyIFG bool
}

// Rung labels of the degradation ladder, recorded in Degradation.Rung.
const (
	// RungLinearScan: the configured allocator ran out of budget during
	// allocation or assignment; the result was recomputed by the DLS linear
	// scan under a fresh (small) step allowance.
	RungLinearScan = "linear-scan"
	// RungSpillAll: the floor — every occurring value is spilled. Reached
	// when the budget trips before the problem structure exists (admission,
	// liveness, cliques), on any machine-constrained trip, or when the
	// linear-scan rung itself fails.
	RungSpillAll = "spill-all"
)

// rungAfter is the degradation ladder as a table: the rung a budget trip in
// a stage falls to. Allocation and assignment trips leave the problem
// structure intact, so the linear scan can redo the allocation — on a run
// without a machine (the interval scan is blind to pins and clobbers) whose
// problem has intervals. Every other trip lands on the spill-all floor.
var rungAfter = map[string]string{
	raerr.StageAllocate: RungLinearScan,
	raerr.StageAssign:   RungLinearScan,
}

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

// Outcome bundles everything a client may want from one allocation run. It
// carries decisions only — the spill set and its cost, the register map,
// the rewritten function, coalescing and degradation reports — and owns all
// of its memory: the analysis behind it (clique structure, membership index,
// interference graph, intervals) lives on the Runner and is overwritten by
// the next run. A run's Outcome and the one an outcome-cache hit
// materializes for the same function have one shape.
type Outcome struct {
	F *ir.Func
	// Build and Cliques are never set by Run. They are kept only for the
	// benchmark module's layer-by-layer replay (regbench), which assembles
	// Outcomes from the layers' exported functions and records the analysis
	// it built in them.
	Build   *ifg.Build
	Cliques *cliques.Structure
	// Problem is decision-level: R, the per-vertex spill costs (Weight),
	// Chordal and Name. It carries no live sets, elimination order, clique
	// structure, intervals or graph (Problem.Graph panics on it).
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

// Runner executes the pipeline repeatedly — the batch pipeline gives each
// worker one. A warmed Runner's Run allocates only what the returned
// Outcome keeps (result, vertex maps, weights, register map, rewritten
// function): every table that dies with the call — validation and
// dominance, loop depths, liveness and its Info, the clique structure with
// its sets and membership index, the working allocation problem and its
// intervals, LH's clusters, the scan and its verification, the rewrite's
// bookkeeping — lives on the Runner and is recycled by the next call.
// Outcomes never reference that memory, so they stay valid across
// subsequent Run calls. Run only reads its input function, so one function
// may be allocated by several Runners at once; a Runner itself is not safe
// for concurrent use.
type Runner struct {
	ir   ir.Scratch
	live *liveness.Scratch
	cs   *cliques.Scratch
	ifg  *ifg.Scratch
	ra   *regassign.Scratch
	// Cached default allocators: layered allocators reuse their own
	// internal scratch across calls, so the defaults are resolved once per
	// Runner rather than once per function.
	defaultChordal alloc.Allocator
	defaultGeneral alloc.Allocator
	// Reusable value-indexed flag slices for assignment and rewrite.
	allocatedVals []bool
	spilledVals   []bool
	// Reusable spill-cost vector (BuildProblem copies what it keeps, so
	// the buffer never escapes into an Outcome).
	costs []float64
	// Affinity construction and the scan's hint table for coalescing.
	bias  coalesce.BiasScratch
	hints regassign.Bias
	// The scan constraints of a run without a machine, and a machine run's
	// per-class state.
	oneClass regassign.Constraints
	con      constrainedScratch
	// The analysis of the current run, overwritten by the next: the clique
	// structure, the working problem over it (or over the explicit graph)
	// and the problem's live intervals.
	structure cliques.Structure
	prob      alloc.Problem
	intervals [][2]int
	cur       run
}

// run is the state of one Runner.Run call: its inputs and the analyses as
// the stages produce them. It lives in the Runner and is overwritten by the
// next call.
type run struct {
	f   *ir.Func
	cfg Config
	dom *ir.Dominance
	// depth is the loop depth of every block of f: the run keeps its loop
	// analysis to itself instead of writing it into the caller's blocks.
	depth []int
	m     *budget.Meter
	info  *liveness.Info
	// cs is the Runner's clique structure on the fast path, build the
	// explicit graph otherwise; p is the Runner's working problem over
	// either.
	cs    *cliques.Structure
	build *ifg.Build
	p     *alloc.Problem
	// vertexOf/valueOf translate between value IDs and p's vertices. They
	// are fresh on every run and handed to the Outcome.
	vertexOf, valueOf []int
	// rc is the scan's register file: the machine's classes, pins and bans,
	// or one GPR class of capacity R.
	rc *regassign.Constraints
	// spans are the clobbering calls of a machine run.
	spans []regassign.CallSpan
}

// NewRunner returns a Runner with empty scratch.
func NewRunner() *Runner {
	return &Runner{
		live:           liveness.NewScratch(),
		cs:             cliques.NewScratch(),
		ifg:            ifg.NewScratch(),
		ra:             regassign.NewScratch(),
		defaultChordal: layered.BFPL(),
		defaultGeneral: layered.NewLH(),
	}
}

// Run executes the decoupled register-allocation pipeline on f.
func Run(f *ir.Func, cfg Config) (*Outcome, error) {
	return NewRunner().Run(f, cfg)
}

// Run executes the decoupled register-allocation pipeline on f, reusing the
// runner's scratch.
func (r *Runner) Run(f *ir.Func, cfg Config) (*Outcome, error) {
	if cfg.Registers < 1 {
		return nil, fmt.Errorf("%w: Registers must be ≥ 1, got %d", raerr.ErrInvalidConfig, cfg.Registers)
	}
	if err := CheckRegisters(cfg.Registers); err != nil {
		return nil, err
	}
	if !cfg.TrustedCostModel {
		if err := cfg.CostModel.Validate(); err != nil {
			return nil, fmt.Errorf("%w: invalid cost model: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if cfg.Coalescing != coalesce.Off && !cfg.Coalescing.Valid() {
		return nil, fmt.Errorf("%w: unknown coalescing policy %d", raerr.ErrInvalidConfig, cfg.Coalescing)
	}
	cons := cfg.Constraints
	if cons != nil {
		if err := checkMachine(cons); err != nil {
			return nil, err
		}
	}
	dom, err := r.ir.ValidateAnalyzed(f)
	if err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "validate",
			Err: fmt.Errorf("invalid input function: %w", err)}
	}
	d := &r.cur
	*d = run{f: f, cfg: cfg, dom: dom}
	reason := cliques.Inapplicable(f, dom)
	fast := !cfg.legacyIFG && (reason == cliques.ReasonApplicable || reason == cliques.ReasonConstrained)
	if cons != nil {
		if err := r.constrain(d, reason); err != nil {
			return nil, err
		}
	} else {
		r.oneClass = regassign.OneClass(cfg.Registers)
		d.rc = &r.oneClass
	}

	d.m = budget.NewMeter(cfg.Budget)
	if be := cfg.Budget.Admit(f.NumValues, len(f.Blocks)); be != nil {
		return r.fail(d, raerr.StageAdmission, be)
	}
	d.depth = r.ir.LoopDepths(f, dom)
	d.m.SetStage(raerr.StageLiveness)
	info, err := r.live.ComputeBudget(f, d.m)
	if err != nil {
		return r.fail(d, raerr.StageLiveness, err)
	}
	d.info = info
	r.costs = spillcost.CostsAt(r.costs, f, cfg.CostModel, d.depth)

	// Interference analysis: clique structure straight from liveness for
	// strict SSA (the fast path), explicit graph otherwise.
	d.m.SetStage(raerr.StageCliques)
	if fast {
		if d.cs, err = cliques.DeriveBudget(info, dom, &r.structure, r.cs, d.m); err != nil {
			return r.fail(d, raerr.StageCliques, err)
		}
	}
	switch {
	case d.cs != nil:
		d.p = alloc.BuildProblemInto(&r.prob, alloc.Spec{Cliques: d.cs, Costs: r.costs, R: cfg.Registers, Constraints: cons})
		r.intervals = linearscan.IntervalsInto(r.intervals, info, d.cs.VertexOf, d.cs.N)
		d.p.Intervals = r.intervals
		d.vertexOf, d.valueOf = d.cs.VertexOf, d.cs.ValueOf
	case cons != nil:
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: clique-structure derivation failed", raerr.ErrNotSSA)}
	default:
		// The explicit-graph build has no internal metering; the stage
		// boundary's forced clock check keeps a deadline honest here.
		if !d.m.CheckNow() {
			return r.fail(d, raerr.StageCliques, d.m.Err())
		}
		d.build = r.ifg.FromLiveness(info)
		d.p = alloc.BuildProblemInto(&r.prob, alloc.Spec{Build: d.build, Costs: r.costs, R: cfg.Registers, Dom: dom})
		r.intervals = linearscan.IntervalsInto(r.intervals, info, d.build.VertexOf, d.build.Graph.N())
		d.p.Intervals = r.intervals
		d.vertexOf, d.valueOf = d.build.VertexOf, d.build.ValueOf
	}

	a := cfg.Allocator
	if a == nil {
		a = r.defaultGeneral
		if d.p.Chordal {
			a = r.defaultChordal
		}
	}
	if !d.p.Chordal && alloc.ChordalOnly(a.Name()) {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("%w: allocator %s requires a chordal (strict-SSA) instance",
				raerr.ErrNotSSA, a.Name())}
	}
	d.m.SetStage(raerr.StageAllocate)
	var res *alloc.Result
	if cons == nil {
		res, err = r.allocate(d, a, d.p)
	} else {
		res, err = r.allocateClasses(d, a)
	}
	if err != nil {
		return nil, err
	}
	// A metered allocator stopped at a charge boundary (its partial result
	// is valid but incomplete); an un-metered one is caught by the clock.
	if d.m.Exceeded() || !d.m.CheckNow() {
		return r.fail(d, raerr.StageAllocate, d.m.Err())
	}
	out, err := r.finish(d, res, d.m, nil)
	if err != nil {
		if d.m.Exceeded() {
			return r.fail(d, raerr.StageAssign, d.m.Err())
		}
		return nil, err
	}
	out.BudgetSpent = d.m.Spent()
	return out, nil
}

// maxRegisters bounds Config.Registers. The assigner's tables grow with the
// register count, so a request for billions of registers would exhaust the
// process's memory; no target has more than a few hundred.
const maxRegisters = 1 << 12

// CheckRegisters reports a register count over the limit every run
// enforces as an ErrInvalidConfig error. Callers that validate a
// configuration before its first run (regalloc.New) fail early on it. The
// wording is the allocation service's, whose in-band answer carries it.
func CheckRegisters(n int) error {
	if n > maxRegisters {
		return fmt.Errorf("%w: %d registers, over the service limit of %d", raerr.ErrInvalidConfig, n, maxRegisters)
	}
	return nil
}

// fail ends a run whose budget tripped in stage: with a typed error, or —
// under Config.Degrade — on the ladder rung the stage table assigns.
func (r *Runner) fail(d *run, stage string, err error) (*Outcome, error) {
	cfg := d.cfg
	if !cfg.Degrade {
		return nil, &raerr.FuncError{Func: d.f.Name, Stage: stage, Err: err}
	}
	trip, ok := err.(*raerr.BudgetError) // admission: the meter never ran
	if !ok {
		trip = d.m.BudgetErr()
	}
	if rungAfter[stage] == RungLinearScan && cfg.Constraints == nil && d.p.Intervals != nil {
		return r.linearScan(d, trip)
	}
	return r.spillAll(d, trip)
}

// allocate runs a on p under the run's meter. Structural preconditions
// (chordality, intervals, option sanity) are checked up front so a
// malformed problem surfaces as a typed error instead of a panic from
// inside the algorithm, and the result is checked for shape and pressure.
func (r *Runner) allocate(d *run, a alloc.Allocator, p *alloc.Problem) (*alloc.Result, error) {
	f := d.f
	if c, ok := a.(alloc.ProblemChecker); ok {
		if err := c.CheckProblem(p); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate", Err: err}
		}
	}
	p.Meter = d.m
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
	return res, nil
}

// finish turns the allocation res over d.p into the Outcome: tree-scan
// assignment, its verification and the spill-code rewrite for SSA chordal
// instances, charging meter (the run's, or a rung's). Assignment may
// force-spill values of a machine run, which res then records. On failure
// the error is a ready-to-surface *raerr.FuncError; a budget trip is
// detectable on the meter itself.
func (r *Runner) finish(d *run, res *alloc.Result, meter *budget.Meter, degraded *Degradation) (*Outcome, error) {
	f, cfg := d.f, d.cfg
	var regOf []int
	var coal *coalesce.Stats
	if !cfg.SkipRewrite && f.SSA && d.p.Chordal {
		meter.SetStage(raerr.StageAssign)
		var err error
		if regOf, coal, err = r.assign(d, res, meter, degraded == nil); err != nil {
			return nil, err
		}
	}
	if cfg.Constraints != nil {
		if err := d.p.ValidateClasses(res, d.rc.Class); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
				Err: fmt.Errorf("%w: merged constrained allocation invalid: %w",
					raerr.ErrPressureUnsatisfiable, err)}
		}
	}
	out := outcomeFrom(d, res)
	out.Degraded = degraded
	if regOf == nil {
		return out, nil
	}
	out.RegisterOf, out.Coalesce = regOf, coal
	r.spilledVals = resizeFlags(r.spilledVals, f.NumValues)
	for _, v := range out.SpilledValues {
		r.spilledVals[v] = true
	}
	var err error
	if out.Rewritten, err = r.rewrite(d, r.spilledVals, len(out.SpilledValues) > 0, "spill-code"); err != nil {
		return nil, err
	}
	return out, nil
}

// rewrite inserts the spill code of the values flagged in spilled into a
// copy of the run's function, which takes the run's loop depths. With check
// set (some value spilled) the copy is validated against the input's
// dominance tree — the rewrite keeps the control flow, which the check
// confirms before reusing the tree; with no spills the copy is the input
// function validated already. what names the rewrite in the error.
func (r *Runner) rewrite(d *run, spilled []bool, check bool, what string) (*ir.Func, error) {
	g := r.ra.InsertSpillCode(d.f, spilled)
	for i, b := range g.Blocks {
		b.LoopDepth = d.depth[i]
	}
	if check {
		if err := r.ir.ValidateRewrite(g, d.f, d.dom); err != nil {
			return nil, &raerr.FuncError{Func: d.f.Name, Stage: "rewrite",
				Err: fmt.Errorf("%s rewrite broke the function: %w", what, err)}
		}
	}
	return g, nil
}

// assign runs the tree-scan over the values res allocates and verifies the
// result. With biased set and coalescing on, φ/copy moves and affinity
// classes come straight from the function and the clique structure — no
// IFG; degraded rungs pass biased false (a budget-tripped run should not
// buy move quality with extra analysis). Bias never changes the allocated
// set, so the spill decisions are untouched either way.
//
// On a machine, pins can collide in ways pressure numbers do not see: a
// stuck scan first retries unbiased (bias must never cost a spill), then
// force-spills the value it names and retries — sound under
// spill-everywhere, and bounded by the value count.
func (r *Runner) assign(d *run, res *alloc.Result, meter *budget.Meter, biased bool) ([]int, *coalesce.Stats, error) {
	f, cfg, nv := d.f, d.cfg, d.f.NumValues
	machine := cfg.Constraints != nil
	r.allocatedVals = resizeFlags(r.allocatedVals, nv)
	allocated := r.allocatedVals
	for vx, al := range res.Allocated {
		if al {
			allocated[d.valueOf[vx]] = true
		}
	}
	var bias *regassign.Bias
	var moves []coalesce.VMove
	var aff *coalesce.Affinity
	coalescing := cfg.Coalescing != coalesce.Off && d.cs != nil && biased
	if coalescing {
		moves = r.bias.Moves(f, cfg.CostModel, d.depth)
		if len(moves) > 0 {
			if machine {
				// Per register class against the class capacity: endpoints
				// of different classes can never share a register.
				aff = coalesce.BuildAffinityConstrained(d.cs, f, moves, cfg.Coalescing, d.rc.Caps, &r.bias)
			} else {
				aff = coalesce.BuildAffinity(d.cs, moves, cfg.Coalescing, cfg.Registers, &r.bias)
			}
			if aff != nil {
				r.hints.Reset(aff.ClassOf, aff.NumClasses)
				bias = &r.hints
			}
		}
	}
	regOf := make([]int, nv)
	for tries := 0; ; tries++ {
		// A machine run charges each attempt as a whole, bounding the O(V)
		// retry loop; a run without one charges per block inside the scan.
		scanMeter := meter
		if machine {
			if !meter.Charge(nv) {
				return nil, nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: meter.Err()}
			}
			scanMeter = nil
		}
		stuck, err := r.ra.AssignConstrained(f, d.dom, d.info, allocated, d.rc, bias, scanMeter, regOf)
		if err == nil && stuck.Val < 0 {
			break
		}
		if meter.Exceeded() {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: err}
		}
		if bias != nil {
			bias = nil
			continue
		}
		if err != nil || !machine || !allocated[stuck.Val] || tries >= nv {
			if err == nil {
				err = stuck.Err(f, d.rc)
			}
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
				Err: fmt.Errorf("%w: assignment failed: %w", raerr.ErrPressureUnsatisfiable, err)}
		}
		allocated[stuck.Val] = false
		res.Allocated[d.vertexOf[stuck.Val]] = false
	}
	if err := r.ra.Verify(d.info, allocated, regOf, d.rc, d.spans); err != nil {
		return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
			Err: fmt.Errorf("assignment verification failed: %w", err)}
	}
	var coal *coalesce.Stats
	if coalescing {
		coal = coalesce.StatsFor(cfg.Coalescing, moves, regOf, aff)
	}
	return regOf, coal, nil
}

// outcomeFrom assembles the Outcome common to every ladder rung: the
// decision-level problem, result, vertex maps, spilled-value list and spill
// cost. It shares nothing with the Runner: the weights and vertex maps are
// fresh on every run.
func outcomeFrom(d *run, res *alloc.Result) *Outcome {
	// One allocation holds the Outcome and its Problem.
	o := &struct {
		out Outcome
		p   alloc.Problem
	}{p: alloc.Problem{R: d.p.R, Weight: d.p.Weight, Chordal: d.p.Chordal, Name: d.p.Name}}
	out := &o.out
	*out = Outcome{
		F:         d.f,
		Problem:   &o.p,
		Result:    res,
		VertexOf:  d.vertexOf,
		ValueOf:   d.valueOf,
		SpillCost: res.SpillCost(d.p),
	}
	if d.cs != nil {
		out.MaxLive = d.cs.MaxLive
	} else {
		out.MaxLive = d.build.MaxLive
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

// linearScan is the middle rung of the degradation ladder: the configured
// allocator ran out of budget during allocation or assignment, so the
// allocation is redone by the DLS linear scan under a fresh, small step
// allowance (the scan is O(n log n); the allowance only matters when the
// shared wall-clock deadline is already near). Any failure inside the rung
// — an invalid result, an assignment trip — falls through to the spill-all
// floor.
func (r *Runner) linearScan(d *run, trip *raerr.BudgetError) (*Outcome, error) {
	rm := d.m.Rung(32*int64(d.p.N()) + 1024)
	rm.SetStage(raerr.StageAllocate)
	d.p.Meter = rm
	res := linearscan.DLS().Allocate(d.p)
	d.p.Meter = nil
	var out *Outcome
	err := d.p.Validate(res)
	if err == nil {
		out, err = r.finish(d, res, rm, &Degradation{Rung: RungLinearScan, Stage: trip.Stage, Reason: trip})
	}
	d.m.AddSpent(rm.Spent())
	if err != nil {
		return r.spillAll(d, trip)
	}
	out.BudgetSpent = d.m.Spent()
	return out, nil
}

// spillAll is the floor of the degradation ladder: every value occurring in
// reachable code is spilled. It needs no liveness, no interference
// structure and no assignment — O(V) work — so it succeeds under any
// budget; the trip that forced the fall is recorded in Degraded. d.info is
// nil when an admission or liveness trip happened before liveness existed,
// in which case MaxLive is reported as 0.
func (r *Runner) spillAll(d *run, trip *raerr.BudgetError) (*Outcome, error) {
	f, cfg := d.f, d.cfg
	nv := f.NumValues
	occurs := make([]bool, nv)
	mark := func(v int) {
		if v >= 0 && v < nv {
			occurs[v] = true
		}
	}
	for _, b := range f.Blocks {
		if d.dom.Order[b.ID] < 0 {
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
	if d.depth == nil { // an admission trip precedes the loop analysis
		d.depth = r.ir.LoopDepths(f, d.dom)
	}
	costs := spillcost.CostsAt(nil, f, cfg.CostModel, d.depth)
	w := make([]float64, len(valueOf))
	for vx, val := range valueOf {
		w[vx] = costs[val]
	}
	// A decision-level Problem like every Outcome's: with nothing allocated,
	// no pressure constraint can bind, so there is nothing to validate.
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
	if d.info != nil {
		out.MaxLive = d.info.MaxLive
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
		var err error
		if out.Rewritten, err = r.rewrite(d, occurs, len(valueOf) > 0, "spill-all"); err != nil {
			return nil, err
		}
	}
	out.BudgetSpent = d.m.Spent()
	return out, nil
}

// resizeFlags returns s resized to n with every flag cleared.
func resizeFlags(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
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
