// Package regalloc is the public API of the repository's register
// allocator: spill-everywhere allocation in the paper's decoupled
// spill-then-assign framework, with the layered (near-optimal) allocators,
// tree-scan register assignment and spill-code rewriting behind a single
// engine type.
//
// This package and its subpackages (regalloc/irx for the IR surface,
// regalloc/workload for benchmark suites and program generators,
// regalloc/verifier for the differential checking harness) are the only
// supported import surface; everything under repro/internal/... is
// implementation and may change without notice.
//
// # Quickstart
//
// Construct an Engine with functional options, then run functions or whole
// modules through it:
//
//	eng, err := regalloc.New(
//		regalloc.WithRegisters(8),
//		regalloc.WithAllocator("bfpl"),
//		regalloc.WithJobs(4),
//	)
//	if err != nil { ... }
//	f, err := irx.Parse(src)
//	out, err := eng.AllocateFunc(ctx, f)
//	// out.SpilledValues, out.RegisterOf, out.Rewritten
//
// An Engine is safe for concurrent use: analysis scratch memory is pooled
// per goroutine, so single-function calls are as fast as the internal
// batch pipeline's workers (pinned by BenchmarkEngineVsCore: zero
// allocation overhead over the internal layer).
//
// # Errors
//
// Failures carry a typed taxonomy (ErrInvalidConfig, ErrUnknownAllocator,
// ErrNotSSA, ErrPressureUnsatisfiable, ErrCanceled) and per-function
// failures wrap *FuncError with the function name and failing pipeline
// stage; everything composes with errors.Is/errors.As.
//
// # Custom allocators
//
// Register adds an allocator factory under a new name, making it available
// to WithAllocator, the pipeline and every front-end flag; Allocators lists
// the registry.
package regalloc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/outcache"
	"repro/internal/pipeline"
	"repro/internal/raerr"
	"repro/internal/spillcost"
	"repro/regalloc/irx"
)

// Outcome bundles everything a client may want from one allocation run:
// the spill decisions, their cost, the per-value register assignment and
// the rewritten function. It aliases the internal pipeline's outcome type,
// so no copying happens at the API boundary.
type Outcome = core.Outcome

// FuncResult is the outcome of one function of a module run: its module
// position, name, and either an Outcome or a per-function error.
type FuncResult = pipeline.FuncResult

// Totals aggregates a module run: function, spill and error counts plus
// total spill cost.
type Totals = pipeline.Totals

// Budget bounds a run's resources: a wall-clock Deadline, a work-step
// Steps budget charged cooperatively inside the analysis and allocation
// loops, and a MaxValues/MaxBlocks admission gate checked before any
// analysis runs. The zero Budget means unbounded. See WithBudget.
type Budget = budget.Limits

// Degradation records how a budget-governed run fell down the degradation
// ladder: the rung that produced the outcome (RungLinearScan or
// RungSpillAll), the stage whose budget trip forced the fall, and the
// underlying *BudgetError. See WithDegradation and Outcome.Degraded.
type Degradation = core.Degradation

// Rung labels of the degradation ladder (Degradation.Rung).
const (
	// RungLinearScan: the configured allocator ran out of budget during
	// allocation or assignment and the result was recomputed by the DLS
	// linear scan under a fresh, small step allowance.
	RungLinearScan = core.RungLinearScan
	// RungSpillAll: the floor — every occurring value spilled. Reached when
	// the budget trips before the problem structure exists (admission,
	// liveness, cliques) or when the linear-scan rung itself runs dry.
	RungSpillAll = core.RungSpillAll
)

// CoalescePolicy selects the coalescing criterion of WithCoalescing. The
// zero value (CoalesceOff) disables coalescing.
type CoalescePolicy = coalesce.Policy

// Coalescing policies.
const (
	// CoalesceOff: no coalescing; assignment is byte-identical to an engine
	// without WithCoalescing.
	CoalesceOff = coalesce.Off
	// CoalesceAggressive groups every copy-related, non-interfering pair of
	// values into one affinity class (Chaitin-style).
	CoalesceAggressive = coalesce.Aggressive
	// CoalesceConservative additionally requires the Briggs criterion — the
	// merged class must have fewer than R neighbours of significant (≥ R)
	// degree — checked against clique-membership degrees, never an explicit
	// graph.
	CoalesceConservative = coalesce.Conservative
)

// CoalescePolicyByName resolves a policy name: "off" (or ""), "aggressive",
// "conservative" (or "briggs"). Unknown names fail with ErrInvalidConfig.
func CoalescePolicyByName(name string) (CoalescePolicy, error) {
	p, ok := coalesce.PolicyByName(name)
	if !ok {
		return CoalesceOff, fmt.Errorf("%w: unknown coalescing policy %q (want off, aggressive or conservative)",
			raerr.ErrInvalidConfig, name)
	}
	return p, nil
}

// CoalesceStats reports the effect of coalescing-biased assignment on one
// function's φ/copy moves: total, eliminated and residual dynamic move
// cost, and the affinity classes behind the bias. See Outcome.Coalesce.
type CoalesceStats = coalesce.Stats

// CostModel parameterizes the spill-cost estimate: the per-loop-level
// multiplier and the store/reload weight ratio. The zero value means
// DefaultCostModel.
type CostModel = spillcost.Model

// DefaultCostModel is the paper's spill-cost model: 10× per loop-nesting
// level, stores as expensive as reloads.
var DefaultCostModel = spillcost.DefaultModel

// NewCostModel builds a CostModel from the loop-level multiplier and the
// store cost factor, where zero fields are meant literally ("stores are
// free"), unlike the zero CostModel which means DefaultCostModel.
func NewCostModel(loopBase, storeFactor float64) CostModel {
	return spillcost.NewModel(loopBase, storeFactor)
}

// options collects the functional-option state of New.
type options struct {
	registers   int
	allocator   string
	costModel   CostModel
	jobs        int
	skipRewrite bool
	trustedCost bool
	cacheSize   int
	sharedCache *Cache
	machine     string
	constraints *arch.Constraints
	budget      Budget
	degrade     bool
	coalescing  CoalescePolicy
}

// Option configures an Engine (New).
type Option func(*options)

// WithRegisters sets the register count R the engine allocates for.
// Required; New rejects engines without it, and counts over 4096 (more
// than any target has) with ErrInvalidConfig.
func WithRegisters(n int) Option { return func(o *options) { o.registers = n } }

// WithAllocator selects the allocation algorithm by registry name
// (case-insensitive): the paper's NL, BL, FPL, BFPL, LH, GC, DLS, BLS and
// Optimal, or anything added with Register. The default picks the paper's
// best general-purpose chordal allocator (BFPL) for strict-SSA functions
// and the layered heuristic (LH) otherwise.
func WithAllocator(name string) Option { return func(o *options) { o.allocator = name } }

// WithMachine turns on machine-constrained allocation for a named target
// ("st231", "armv7", "jvm98"; case-insensitive): the machine's constraint
// shape is instantiated at the engine's register count, so WithRegisters
// acts as the per-class capacity, and allocation honors register classes,
// pre-colored ABI values and call-clobber sets. Mutually exclusive with
// WithConstraints; unknown names fail at New.
func WithMachine(name string) Option { return func(o *options) { o.machine = name } }

// WithConstraints turns on machine-constrained allocation under an explicit
// constraint object — the escape hatch for targets the registry does not
// name. The constraints are validated at New. Mutually exclusive with
// WithMachine.
func WithConstraints(c *Constraints) Option { return func(o *options) { o.constraints = c } }

// WithCostModel overrides the spill-cost model (default DefaultCostModel).
func WithCostModel(m CostModel) Option { return func(o *options) { o.costModel = m } }

// WithJobs sets the worker count for module runs (default: GOMAXPROCS).
// Results are deterministic — byte-identical — at any worker count.
func WithJobs(n int) Option { return func(o *options) { o.jobs = n } }

// WithoutRewrite disables spill-code insertion and register assignment:
// the engine reports allocation decisions (spill sets and costs) only.
func WithoutRewrite() Option { return func(o *options) { o.skipRewrite = true } }

// WithTrustedCostModel skips cost-model validation at New; the caller
// guarantees the model is well-formed.
func WithTrustedCostModel() Option { return func(o *options) { o.trustedCost = true } }

// WithCache gives the engine a private content-addressed outcome cache
// bounded to capacity entries (capacity ≥ 1). Every AllocateFunc /
// AllocateModule / AllocateStream call consults it before running and
// publishes after: functions whose structure (alpha-renaming aside) and
// configuration were seen before cost roughly a fingerprint plus a copy
// instead of a full pipeline run. Results are byte-identical with the cache
// on or off — allocation is deterministic, which is what makes the cache
// sound — and hit and miss outcomes have one shape: every Outcome is
// decision-level, carrying the spill set, costs, assignment and rewritten
// body but no analysis structures (its Problem has weights, R and
// chordality only; use Inspect for the interference structure), and
// neither annotates the input function with loop depths. Admission is
// 2Q-style: an outcome is stored on the second sighting of its fingerprint,
// so duplication-free traffic pays only the hash.
func WithCache(capacity int) Option { return func(o *options) { o.cacheSize = capacity } }

// WithSharedCache attaches an existing cache (NewCache) to the engine, so
// several engines — e.g. one per request configuration in a compile
// service — share one bounded pool. Entries are keyed by configuration as
// well as content, so engines with different configs never cross-serve.
func WithSharedCache(c *Cache) Option { return func(o *options) { o.sharedCache = c } }

// WithCoalescing enables coalescing-biased register assignment: φ/copy-
// related values are grouped into affinity classes (CoalesceAggressive
// merges every non-interfering pair; CoalesceConservative applies the
// Briggs colourability criterion) and the tree-scan assigner prefers an
// affine partner's register when it is free at the definition point,
// eliminating the move. The bias is strictly best-effort: it never changes
// which values are allocated, never costs a spill, and CoalesceOff (the
// default) is byte-identical to an engine without this option. Applies on
// the IFG-free SSA fast path (including machine-constrained allocation,
// where ABI pins seed the class hints). The per-function effect is reported in Outcome.Coalesce.
func WithCoalescing(p CoalescePolicy) Option { return func(o *options) { o.coalescing = p } }

// WithBudget bounds every run's resources: a wall-clock deadline (per
// function), a cooperative work-step budget, and a max-values/max-blocks
// admission gate. Without WithDegradation, exhausting the budget fails the
// function with a *FuncError wrapping ErrBudgetExceeded (carrying a
// *BudgetError with the stage and spend); sibling functions of a module are
// unaffected. The zero Budget means unbounded (the default).
func WithBudget(b Budget) Option { return func(o *options) { o.budget = b } }

// WithDegradation turns budget trips into degraded-but-correct outcomes
// instead of errors: a governed run that exhausts its budget falls down the
// ladder layered → linear-scan → spill-all (each rung cheaper; the
// spill-all floor is O(V) and never fails) and the Outcome records the rung
// and reason in Outcome.Degraded. Degraded outcomes satisfy every
// correctness invariant — pressure ≤ R, interference-free assignment,
// semantics-preserving rewrite — they just spill more than a fully funded
// run would. They are never stored in the outcome cache, so a later run
// with more budget recomputes them. Meaningful only with WithBudget.
func WithDegradation() Option { return func(o *options) { o.degrade = true } }

// Engine runs the register-allocation pipeline. It wraps the internal
// scratch-reusing runner and the module worker pool behind one validated
// configuration; construct it with New and reuse it — an Engine is safe
// for concurrent use by multiple goroutines.
type Engine struct {
	opts  options
	pool  sync.Pool // *worker
	cache *outcache.Cache
	fold  fingerprint.Config // cache-key fold of the engine config
}

// worker is one goroutine's pipeline instance: reusable analysis scratch
// plus a private allocator instance (allocators keep per-run state).
type worker struct {
	runner *core.Runner
	cfg    core.Config
}

// New validates the configuration and builds an Engine. Errors wrap
// ErrInvalidConfig (bad register/worker counts, malformed cost model) or
// ErrUnknownAllocator.
func New(opt ...Option) (*Engine, error) {
	var o options
	for _, fn := range opt {
		fn(&o)
	}
	if o.registers < 1 {
		return nil, fmt.Errorf("%w: WithRegisters(n ≥ 1) is required, got %d", raerr.ErrInvalidConfig, o.registers)
	}
	if err := core.CheckRegisters(o.registers); err != nil {
		return nil, err
	}
	if o.jobs < 0 {
		return nil, fmt.Errorf("%w: WithJobs(%d) is negative", raerr.ErrInvalidConfig, o.jobs)
	}
	if o.allocator != "" {
		if _, err := alloc.NewByName(o.allocator); err != nil {
			return nil, err
		}
	}
	if !o.trustedCost {
		if err := o.costModel.Validate(); err != nil {
			return nil, fmt.Errorf("%w: invalid cost model: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if o.cacheSize < 0 || (o.cacheSize > 0 && o.sharedCache != nil) {
		return nil, fmt.Errorf("%w: WithCache(%d) and WithSharedCache are mutually exclusive and require capacity ≥ 1",
			raerr.ErrInvalidConfig, o.cacheSize)
	}
	if o.machine != "" {
		if o.constraints != nil {
			return nil, fmt.Errorf("%w: WithMachine and WithConstraints are mutually exclusive", raerr.ErrInvalidConfig)
		}
		m, err := arch.ByName(o.machine)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
		}
		o.constraints = m.Constraints(o.registers)
	}
	if o.constraints != nil {
		if err := o.constraints.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if o.coalescing != CoalesceOff && !o.coalescing.Valid() {
		return nil, fmt.Errorf("%w: unknown coalescing policy %d", raerr.ErrInvalidConfig, o.coalescing)
	}
	e := &Engine{opts: o}
	e.pool.New = func() any { return e.newWorker() }
	switch {
	case o.sharedCache != nil:
		e.cache = o.sharedCache
	case o.cacheSize > 0:
		e.cache = outcache.New(o.cacheSize)
	}
	if e.cache != nil {
		e.fold = fingerprint.NewConfig(o.registers, o.allocator, o.costModel, !o.skipRewrite, o.constraints, int(o.coalescing))
	}
	return e, nil
}

// newWorker builds one pipeline instance under the engine's (already
// validated) configuration.
func (e *Engine) newWorker() *worker {
	w := &worker{runner: core.NewRunner(), cfg: core.Config{
		Registers:   e.opts.registers,
		CostModel:   e.opts.costModel,
		SkipRewrite: e.opts.skipRewrite,
		Constraints: e.opts.constraints,
		Coalescing:  e.opts.coalescing,
		Budget:      e.opts.budget,
		Degrade:     e.opts.degrade,
		// New validated the model once for the engine's lifetime.
		TrustedCostModel: true,
	}}
	if e.opts.allocator != "" {
		a, err := alloc.NewByName(e.opts.allocator)
		if err != nil {
			// Unreachable: New resolved the name once already, and
			// registrations are never removed.
			panic(err)
		}
		w.cfg.Allocator = a
	}
	return w
}

// AllocateFunc runs the full pipeline — liveness, interference analysis,
// spill-everywhere allocation, tree-scan assignment, spill-code rewrite —
// on one function. The function is only read, so concurrent AllocateFunc
// calls may share one *Func value; the Outcome never aliases engine
// scratch, so it stays valid across subsequent calls. Cancellation is checked once on entry (a
// single function is the pipeline's atomic unit); per-function failures
// are *FuncError.
func (e *Engine) AllocateFunc(ctx context.Context, f *irx.Func) (*Outcome, error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil function", raerr.ErrInvalidConfig)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", raerr.ErrCanceled, err)
		}
	}
	if e.cache != nil {
		key := fingerprint.Key(f, e.fold)
		if out := e.cache.Get(key, f); out != nil {
			return out, nil
		}
		w := e.pool.Get().(*worker)
		out, err := pipeline.RunFunc(w.runner, f, w.cfg)
		e.pool.Put(w)
		// Degraded outcomes are never cached: the trip point depends on the
		// wall clock, and a later call may have the budget to do better.
		if err == nil && out.Degraded == nil {
			e.cache.Put(key, out)
		}
		return out, err
	}
	w := e.pool.Get().(*worker)
	out, err := pipeline.RunFunc(w.runner, f, w.cfg)
	e.pool.Put(w)
	return out, err
}

// moduleConfig translates the engine options for the module pipeline.
func (e *Engine) moduleConfig() pipeline.Config {
	return pipeline.Config{
		Registers:   e.opts.registers,
		Allocator:   e.opts.allocator,
		CostModel:   e.opts.costModel,
		Constraints: e.opts.constraints,
		SkipRewrite: e.opts.skipRewrite,
		Jobs:        e.opts.jobs,
		Coalescing:  e.opts.coalescing,
		// New validated the model (or the caller opted out with
		// WithTrustedCostModel); don't re-validate per module run.
		TrustedCostModel: true,
		Cache:            e.cache,
		Budget:           e.opts.budget,
		Degrade:          e.opts.degrade,
	}
}

// AllocateModule allocates every function of m over the engine's worker
// pool. The returned slice is indexed by module position and deterministic
// (byte-identical results) for any WithJobs count; per-function failures
// land in FuncResult.Err rather than aborting the batch. Workers observe
// ctx between functions: on cancellation the full-length slice is still
// returned with every function that completed before the cut (with
// several workers these are not necessarily a prefix), the unprocessed
// functions marked with ErrCanceled, and the returned error wraps both
// ErrCanceled and the context's error.
func (e *Engine) AllocateModule(ctx context.Context, m *irx.Module) ([]FuncResult, error) {
	return pipeline.RunModule(ctx, m, e.moduleConfig())
}

// AllocateStream is AllocateModule in streaming form: yield observes every
// FuncResult in module order as soon as it and all its predecessors are
// done, without waiting for the rest of the batch — the shape a compiler
// driver wants for pipelining codegen behind allocation. A non-nil error
// from yield stops the workers and is returned verbatim; cancellation ends
// the stream with an error wrapping ErrCanceled.
func (e *Engine) AllocateStream(ctx context.Context, m *irx.Module, yield func(FuncResult) error) error {
	return pipeline.RunModuleStream(ctx, m, e.moduleConfig(), yield)
}

// FirstError returns the first per-function error of a module run in
// module order, or nil.
func FirstError(results []FuncResult) error { return pipeline.FirstErr(results) }

// FormatResults renders module results as the canonical batch report: one
// line per function plus, with detail, the register assignment and the
// rewritten body of each SSA function. The rendering is a pure function of
// the results (the byte-identity witness of the determinism guarantee).
func FormatResults(results []FuncResult, detail bool) string {
	return pipeline.FormatResults(results, detail)
}

// Summarize computes module-run totals.
func Summarize(results []FuncResult) Totals { return pipeline.Summarize(results) }
