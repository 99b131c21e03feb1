// Package pipeline runs the register-allocation pipeline over whole
// modules: it fans the functions of an ir.Module out over a fixed worker
// pool, reuses per-worker analysis scratch (a core.Runner each) across
// functions instead of reallocating it, and returns results in module
// order regardless of the worker count — the batch layer that turns the
// single-function library into a throughput-oriented system.
//
// Determinism contract: the result for each function depends only on that
// function and the configuration, never on scheduling, so RunModule output
// is byte-identical across worker counts (pinned by the package tests under
// the race detector).
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/outcache"
	"repro/internal/raerr"
	"repro/internal/spillcost"
)

// Config controls one batch run. Unlike core.Config it names the allocator
// instead of carrying an instance: allocator implementations may keep
// per-run state (the exact solver records LastExact), so each worker
// resolves a private instance.
type Config struct {
	// Registers is the register count R (required, ≥ 1).
	Registers int
	// Allocator is a core.AllocatorByName name; "" picks the default
	// (BFPL for chordal/SSA functions, LH otherwise).
	Allocator string
	// CostModel overrides the spill-cost estimate (zero value = default).
	CostModel spillcost.Model
	// Constraints, when non-nil, turns on machine-constrained allocation:
	// register classes, pre-colored ABI values and call clobbers are
	// honored, with Registers acting as the per-class capacity.
	Constraints *arch.Constraints
	// SkipRewrite disables spill-code insertion and register assignment.
	SkipRewrite bool
	// Jobs is the worker count; 0 means GOMAXPROCS.
	Jobs int
	// TrustedCostModel skips the batch-level CostModel validation: the
	// caller (the regalloc Engine, which validates at construction time)
	// guarantees the model is well-formed.
	TrustedCostModel bool
	// Coalescing enables coalescing-biased register assignment on the
	// IFG-free fast path; see core.Config.Coalescing. The zero value
	// (coalesce.Off) is byte-identical to the unbiased pipeline.
	Coalescing coalesce.Policy
	// Budget, when Active, bounds every function's resources (wall-clock
	// deadline, work-step budget, admission gate); see core.Config.Budget.
	// The deadline is per function, not per batch.
	Budget budget.Limits
	// Degrade converts per-function budget trips into degraded-but-correct
	// outcomes (FuncResult.Outcome.Degraded records the ladder rung) instead
	// of per-function errors; see core.Config.Degrade. Degraded outcomes are
	// never published to Cache — the trip point depends on wall-clock time,
	// and a later, better-funded run must be able to replace them.
	Degrade bool
	// Cache, when non-nil, is consulted before each function runs and
	// published to after each successful run: workers key it by the
	// function's structural fingerprint folded with the allocation config,
	// so redundant functions cost a hash plus a copy. Results are
	// byte-identical with the cache on or off, at any Jobs count.
	Cache *outcache.Cache
	// onFuncDone, when set, runs on the worker goroutine after every
	// completed function — a package-internal test hook that makes
	// mid-batch cancellation deterministic to provoke.
	onFuncDone func()
}

// FuncResult is the outcome of one function of the module.
type FuncResult struct {
	// Index is the function's position in the module.
	Index int
	// Name is the function's name.
	Name string
	// Outcome is the full pipeline outcome (nil when Err is set).
	Outcome *core.Outcome
	// Err is the per-function failure, if any; other functions of the
	// module are unaffected.
	Err error
	// Cached reports that the outcome was served from the outcome cache
	// (Config.Cache) or reused from a previous revision (incremental mode)
	// instead of being recomputed. Cached outcomes are byte-identical to
	// recomputed ones; FormatResults deliberately ignores this flag so the
	// rendering stays the determinism witness.
	Cached bool
}

// RunModule allocates every function of m under cfg. The returned slice is
// indexed by module position (deterministic for any worker count);
// per-function failures land in FuncResult.Err rather than aborting the
// batch. The module functions themselves are annotated in place with loop
// depths, as core.Run does.
//
// Workers check ctx between functions, so a long batch is cancellable: on
// cancellation RunModule still returns the full-length result slice with
// every function that completed before the cut, marks the unprocessed ones
// with raerr.ErrCanceled, and returns an error wrapping both
// raerr.ErrCanceled and the context's own error.
func RunModule(ctx context.Context, m *ir.Module, cfg Config) ([]FuncResult, error) {
	results, _, err := start(ctx, m, cfg, nil)
	return results, err
}

// RunModuleStream is RunModule in streaming form: yield observes every
// FuncResult in module order (the same deterministic order RunModule
// returns) as soon as it and all its predecessors are done, without waiting
// for the rest of the batch. A non-nil error from yield stops the workers
// and is returned verbatim. On context cancellation the stream ends early
// with an error wrapping raerr.ErrCanceled; results that were computed but
// not yet yielded are dropped, never reordered.
func RunModuleStream(ctx context.Context, m *ir.Module, cfg Config, yield func(FuncResult) error) error {
	// Each index is sent exactly once, so a module-sized buffer means a
	// worker never blocks on the ordering barrier: a slow yield (or a slow
	// head-of-line function) back-pressures the emission loop, not the
	// pool. This was a measurable serialization point for multi-core runs.
	buf := 0
	if m != nil {
		buf = len(m.Funcs)
	}
	notify := make(chan int, buf)
	results, wait, err := start(ctx, m, cfg, notify)
	if err != nil && results == nil {
		return err // configuration error: no workers were started
	}
	emitted, nextEmit := make([]bool, len(results)), 0
	var yieldErr error
	for i := range notify {
		emitted[i] = true
		for nextEmit < len(results) && emitted[nextEmit] {
			if yieldErr == nil {
				if yieldErr = yield(results[nextEmit]); yieldErr != nil {
					wait.cancel() // stop the workers; keep draining notify
				}
			}
			nextEmit++
		}
	}
	if yieldErr != nil {
		return yieldErr
	}
	return wait.err()
}

// batchHandle lets the stream front-end cancel and join a running batch.
type batchHandle struct {
	cancel context.CancelFunc
	errFn  func() error
}

func (h *batchHandle) err() error { return h.errFn() }

// start validates cfg, fans the workers out, and — when notify is nil —
// joins them before returning. With a notify channel, completion indexes
// are delivered on it as workers finish functions and the channel is closed
// once all workers exit; the caller drains it and then calls handle.err().
func start(ctx context.Context, m *ir.Module, cfg Config, notify chan int) ([]FuncResult, *batchHandle, error) {
	if m == nil || len(m.Funcs) == 0 {
		return nil, nil, fmt.Errorf("%w: empty module", raerr.ErrInvalidConfig)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(m.Funcs) {
		jobs = len(m.Funcs)
	}
	results := make([]FuncResult, len(m.Funcs))
	// done[i] is the explicit completion marker for function i, set by the
	// worker that processed it (each index is claimed by exactly one worker
	// and wg.Wait orders the writes before finish reads them). The
	// cancellation accounting below keys on this marker, never on
	// zero-value sentinels in results — a legitimate result can look
	// zero-ish, state must not be conflated with data.
	done := make([]bool, len(m.Funcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(ctx, m, cfg, results, done, &next, notify)
		}()
	}
	finish := func() error {
		wg.Wait()
		defer cancel()
		if err := ctx.Err(); err != nil {
			// Partial batch: mark every function no worker completed.
			for i := range results {
				if !done[i] {
					results[i] = FuncResult{Index: i, Name: m.Funcs[i].Name,
						Err: fmt.Errorf("%w: %w", raerr.ErrCanceled, err)}
				}
			}
			return fmt.Errorf("pipeline: module run interrupted: %w: %w", raerr.ErrCanceled, err)
		}
		return nil
	}
	if notify == nil {
		return results, &batchHandle{cancel: cancel}, finish()
	}
	handle := &batchHandle{cancel: cancel}
	var joinOnce sync.Once
	var joinErr error
	handle.errFn = func() error {
		joinOnce.Do(func() { joinErr = finish() })
		return joinErr
	}
	go func() {
		wg.Wait()
		close(notify)
	}()
	return results, handle, nil
}

// validateConfig is the batch-level configuration check shared by the
// module entry points (start and RunModuleIncremental).
func validateConfig(cfg Config) error {
	if cfg.Registers < 1 {
		return fmt.Errorf("%w: Registers must be ≥ 1, got %d", raerr.ErrInvalidConfig, cfg.Registers)
	}
	if cfg.Allocator != "" {
		// Fail fast on unknown names instead of once per function.
		if _, err := core.AllocatorByName(cfg.Allocator); err != nil {
			return err
		}
	}
	if !cfg.TrustedCostModel {
		if err := cfg.CostModel.Validate(); err != nil {
			return fmt.Errorf("%w: invalid cost model: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if cfg.Constraints != nil {
		if err := cfg.Constraints.Validate(); err != nil {
			return fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if cfg.Coalescing != coalesce.Off && !cfg.Coalescing.Valid() {
		return fmt.Errorf("%w: unknown coalescing policy %d", raerr.ErrInvalidConfig, cfg.Coalescing)
	}
	return nil
}

// fingerprintConfig is the canonical fold of the outcome-affecting half of
// cfg — the content-addressed cache key component shared by the batch
// workers, the engine's single-function path and incremental mode.
func fingerprintConfig(cfg Config) fingerprint.Config {
	return fingerprint.NewConfig(cfg.Registers, cfg.Allocator, cfg.CostModel, !cfg.SkipRewrite, cfg.Constraints, int(cfg.Coalescing))
}

// worker drains the module's function queue with one reusable Runner (and
// one private allocator instance), checking for cancellation between
// functions.
func worker(ctx context.Context, m *ir.Module, cfg Config, results []FuncResult, done []bool, next *atomic.Int64, notify chan int) {
	runner := core.NewRunner()
	ccfg := core.Config{
		Registers:   cfg.Registers,
		CostModel:   cfg.CostModel,
		Constraints: cfg.Constraints,
		SkipRewrite: cfg.SkipRewrite,
		Coalescing:  cfg.Coalescing,
		Budget:      cfg.Budget,
		Degrade:     cfg.Degrade,
		// Either start validated the model for the whole batch, or the
		// caller set Config.TrustedCostModel and owns that guarantee.
		TrustedCostModel: true,
	}
	if cfg.Allocator != "" {
		a, err := core.AllocatorByName(cfg.Allocator)
		if err != nil {
			panic(err) // unreachable: start validates the name up front
		}
		ccfg.Allocator = a
	}
	var fold fingerprint.Config
	if cfg.Cache != nil {
		fold = fingerprintConfig(cfg)
	}
	for {
		if ctx.Err() != nil {
			return
		}
		i := int(next.Add(1)) - 1
		if i >= len(m.Funcs) {
			return
		}
		f := m.Funcs[i]
		if cfg.Cache != nil {
			key := fingerprint.Key(f, fold)
			if out := cfg.Cache.Get(key, f); out != nil {
				results[i] = FuncResult{Index: i, Name: f.Name, Outcome: out, Cached: true}
			} else {
				out, err := RunFunc(runner, f, ccfg)
				results[i] = FuncResult{Index: i, Name: f.Name, Outcome: out, Err: err}
				if err == nil && out.Degraded == nil {
					cfg.Cache.Put(key, out)
				}
			}
		} else {
			out, err := RunFunc(runner, f, ccfg)
			results[i] = FuncResult{Index: i, Name: f.Name, Outcome: out, Err: err}
		}
		done[i] = true
		if cfg.onFuncDone != nil {
			cfg.onFuncDone()
		}
		if notify != nil {
			notify <- i
		}
	}
}

// RunFunc runs one function through runner (or a fresh pipeline when
// runner is nil), converting allocator contract panics into errors so one
// bad function cannot take down a batch service. Exported for front-ends
// that stream single functions (the JSONL service) rather than modules.
func RunFunc(runner *core.Runner, f *ir.Func, cfg core.Config) (out *core.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Keep the typed per-function contract even for panicking
			// (custom) allocators: clients dispatch on *FuncError.
			out, err = nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
				Err: fmt.Errorf("allocator panicked: %v", r)}
		}
	}()
	if runner != nil {
		return runner.Run(f, cfg)
	}
	return core.Run(f, cfg)
}

// FirstErr returns the first per-function error in module order, or nil.
func FirstErr(results []FuncResult) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("%s: %w", results[i].Name, results[i].Err)
		}
	}
	return nil
}

// FormatResults renders results as the canonical batch report: one line per
// function, plus (with detail) the register assignment and the rewritten
// body of each SSA function. The rendering is a pure function of the
// results, so it doubles as the byte-identity witness of the determinism
// tests.
func FormatResults(results []FuncResult, detail bool) string {
	var b strings.Builder
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			fmt.Fprintf(&b, "func %-16s ERROR %v\n", r.Name, r.Err)
			continue
		}
		out := r.Outcome
		fmt.Fprintf(&b, "func %-16s alloc=%-5s values=%-4d maxlive=%-3d spilled=%-3d cost=%.1f/%.1f",
			r.Name, out.Result.Allocator, out.Problem.N(), out.MaxLive,
			len(out.SpilledValues), out.SpillCost, out.Problem.TotalWeight())
		if out.Degraded != nil {
			fmt.Fprintf(&b, " DEGRADED[%s@%s]", out.Degraded.Rung, out.Degraded.Stage)
		}
		if len(out.SpilledValues) > 0 {
			names := make([]string, len(out.SpilledValues))
			for k, v := range out.SpilledValues {
				names[k] = out.F.NameOf(v)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, " spill=[%s]", strings.Join(names, " "))
		}
		b.WriteByte('\n')
		if detail {
			if out.RegisterOf != nil {
				var cells []string
				for val, reg := range out.RegisterOf {
					if reg >= 0 {
						cells = append(cells, fmt.Sprintf("%s=%s", out.F.NameOf(val), ir.RegName(reg)))
					}
				}
				sort.Strings(cells)
				fmt.Fprintf(&b, "  assignment: %s\n", strings.Join(cells, " "))
			}
			if out.Rewritten != nil {
				for _, line := range strings.Split(strings.TrimRight(out.Rewritten.String(), "\n"), "\n") {
					fmt.Fprintf(&b, "  | %s\n", line)
				}
			}
		}
	}
	return b.String()
}

// Totals aggregates a batch: function, spill and error counts plus total
// spill cost.
type Totals struct {
	Funcs     int
	Errors    int
	Spilled   int
	SpillCost float64
	// Degraded counts functions whose outcome fell down the degradation
	// ladder (budget-governed runs with Config.Degrade).
	Degraded int
}

// Summarize computes batch totals.
func Summarize(results []FuncResult) Totals {
	t := Totals{Funcs: len(results)}
	for i := range results {
		if results[i].Err != nil {
			t.Errors++
			continue
		}
		t.Spilled += len(results[i].Outcome.SpilledValues)
		t.SpillCost += results[i].Outcome.SpillCost
		if results[i].Outcome.Degraded != nil {
			t.Degraded++
		}
	}
	return t
}
