package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/raerr"
	"repro/regalloc"
	"repro/regalloc/irx"
)

// This file is the request/response schema of the allocation service —
// shared verbatim between the JSONL stdin/stdout mode of cmd/allocbatch
// and the HTTP body of POST /v1/allocate — plus the bounded
// per-configuration engine table and the single-request serving logic both
// front-ends drive.

// Request is one allocation request: a single function (IR) or a whole
// compilation unit (Module), with optional per-request overrides of the
// service's default register count, allocator, machine and coalescing
// policy. Machine names a registered target machine (see
// regalloc.MachineNames); a non-empty value turns on machine-constrained
// allocation — register classes, pre-colored ABI values and caller-saved
// clobbers at calls — instantiated at the request's register count.
// Coalesce names a coalescing policy ("off", "aggressive", "conservative");
// a non-"off" value biases register assignment toward eliminating
// move/φ-induced copies at identical spill cost, and the response carries
// the move report under "coalesce". A request with "stats":true returns
// the service counters instead of allocating.
type Request struct {
	ID        string `json:"id"`
	IR        string `json:"ir,omitempty"`
	Module    string `json:"module,omitempty"`
	Registers int    `json:"registers,omitempty"`
	Allocator string `json:"allocator,omitempty"`
	Machine   string `json:"machine,omitempty"`
	Coalesce  string `json:"coalesce,omitempty"`
	Print     bool   `json:"print,omitempty"`
	Stats     bool   `json:"stats,omitempty"`
}

// CoalesceInfo is the per-function move report of a coalescing-biased
// allocation: the dynamic cost of the function's move/φ copies, how much of
// it the biased assignment eliminated (source and destination got the same
// register) and what remains, plus the affinity-class shape that drove the
// bias. Spill cost is unaffected by bias — the decoupled pipeline fixes the
// spill set before assignment — so EliminatedCost is pure profit.
type CoalesceInfo struct {
	Policy         string  `json:"policy"`
	Moves          int     `json:"moves"`
	MoveCost       float64 `json:"moveCost"`
	EliminatedCost float64 `json:"eliminatedCost"`
	ResidualCost   float64 `json:"residualCost"`
	Classes        int     `json:"classes,omitempty"`
	Merged         int     `json:"merged,omitempty"`
}

// ServiceStats is the payload of a "stats":true response: the resident
// engine count of the bounded per-configuration engine table and, when the
// service runs with an outcome cache, the shared cache counters.
type ServiceStats struct {
	Engines        int    `json:"engines"`
	EngineCapacity int    `json:"engineCapacity"`
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEntries   int    `json:"cacheEntries"`
	CacheEvicted   uint64 `json:"cacheEvicted"`
	CacheBytes     int64  `json:"cacheBytes"`
	CacheCapacity  int    `json:"cacheCapacity"`
}

// Response is one allocation response. Single-function requests fill the
// per-function fields directly; module requests return one entry per
// function, in module order, under Results. Failures come back in Error —
// per-function failures inside a module land on that function's entry
// without failing the sibling functions.
type Response struct {
	ID         string         `json:"id,omitempty"`
	Func       string         `json:"func,omitempty"`
	Allocator  string         `json:"allocator,omitempty"`
	Registers  int            `json:"registers,omitempty"`
	Machine    string         `json:"machine,omitempty"`
	Values     int            `json:"values,omitempty"`
	MaxLive    int            `json:"maxlive,omitempty"`
	Spilled    []string       `json:"spilled,omitempty"`
	SpillCost  float64        `json:"spillCost"`
	Assignment map[string]int `json:"assignment,omitempty"`
	Rewritten  string         `json:"rewritten,omitempty"`
	// Degraded, when non-empty, is the degradation-ladder rung that produced
	// this outcome ("linear-scan" or "spill-all"): the budget-governed
	// service ran out of resources and served a correct but lower-quality
	// allocation instead of failing. DegradedStage is the pipeline stage
	// whose budget trip forced the fall.
	Degraded      string        `json:"degraded,omitempty"`
	DegradedStage string        `json:"degradedStage,omitempty"`
	Coalesce      *CoalesceInfo `json:"coalesce,omitempty"`
	Cached        bool          `json:"cached,omitempty"`
	Results       []Response    `json:"results,omitempty"`
	Stats         *ServiceStats `json:"stats,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// EngineCacheCap bounds the per-configuration engine table: a long-lived
// service fed adversarial (registers, allocator) combinations must not
// grow engines — and their pooled scratch — without limit.
const EngineCacheCap = 64

// maxRegisters bounds a configuration's register count. Allocation tables
// grow with it, so a request for billions of registers would exhaust the
// process's memory; no target has more than a few hundred.
const maxRegisters = 1 << 12

// EngineCache resolves one shared engine per (registers, allocator)
// request configuration, bounded to EngineCacheCap entries with
// least-recently-used eviction. Engines pool their analysis scratch
// internally, so concurrent requests just share them; evicting an engine
// only drops pooled scratch — with an outcome cache attached, its
// allocation outcomes live on in the shared cache (keys fold the
// configuration), so a re-built engine keeps hitting them.
type EngineCache struct {
	mu      sync.Mutex
	m       map[engineKey]*engineEntry
	shared  *regalloc.Cache // nil when the service runs cache-less
	jobs    int             // worker count for module requests
	seq     uint64
	budget  regalloc.Budget // zero = unbounded
	degrade bool
}

// engineKey is one request configuration. The names are lower-cased and
// the coalescing policy canonical, so alias spellings share one engine.
type engineKey struct {
	regs           int
	alloc, machine string
	policy         regalloc.CoalescePolicy
}

type engineEntry struct {
	eng  *regalloc.Engine
	used uint64 // last-touched tick for LRU eviction
}

// NewEngineCache builds the engine table. A non-nil shared outcome cache is
// attached to every engine; jobs is the per-module-request worker count
// (0 = GOMAXPROCS).
func NewEngineCache(shared *regalloc.Cache, jobs int) *EngineCache {
	return &EngineCache{shared: shared, jobs: jobs}
}

// SharedCache returns the outcome cache the table attaches to its engines,
// or nil.
func (c *EngineCache) SharedCache() *regalloc.Cache { return c.shared }

// SetBudget applies a resource budget — and, with degrade, graceful
// degradation — to every engine the table builds from now on. Call it right
// after NewEngineCache, before the first Get: engines already built keep
// their previous configuration.
func (c *EngineCache) SetBudget(b regalloc.Budget, degrade bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget, c.degrade = b, degrade
}

// Get resolves (or builds and caches) the engine for one request
// configuration. A non-empty machine name selects machine-constrained
// allocation on the named target, instantiated at regs registers; a
// non-empty coalesce names the coalescing policy ("off", "aggressive",
// "conservative"/"briggs") and biases assignment accordingly. The key folds
// the canonical policy, so alias spellings share one engine while distinct
// policies never do (bias changes assignments, never spills). A register
// count over maxRegisters is an ErrInvalidConfig error.
func (c *EngineCache) Get(regs int, allocName, machine, coalesce string) (*regalloc.Engine, error) {
	if regs > maxRegisters {
		return nil, fmt.Errorf("%w: %d registers, over the service limit of %d", raerr.ErrInvalidConfig, regs, maxRegisters)
	}
	pol, err := regalloc.CoalescePolicyByName(coalesce)
	if err != nil {
		return nil, err
	}
	key := engineKey{regs, strings.ToLower(allocName), strings.ToLower(machine), pol}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if e, ok := c.m[key]; ok {
		e.used = c.seq
		return e.eng, nil
	}
	opts := []regalloc.Option{regalloc.WithRegisters(regs), regalloc.WithJobs(c.jobs)}
	if allocName != "" {
		opts = append(opts, regalloc.WithAllocator(allocName))
	}
	if machine != "" {
		opts = append(opts, regalloc.WithMachine(machine))
	}
	if pol != regalloc.CoalesceOff {
		opts = append(opts, regalloc.WithCoalescing(pol))
	}
	if c.shared != nil {
		opts = append(opts, regalloc.WithSharedCache(c.shared))
	}
	if c.budget.Active() {
		opts = append(opts, regalloc.WithBudget(c.budget))
		if c.degrade {
			opts = append(opts, regalloc.WithDegradation())
		}
	}
	eng, err := regalloc.New(opts...)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = make(map[engineKey]*engineEntry)
	}
	c.m[key] = &engineEntry{eng: eng, used: c.seq}
	if len(c.m) > EngineCacheCap {
		var lruKey engineKey
		lru := uint64(1<<64 - 1)
		for k, e := range c.m {
			if e.used < lru {
				lru, lruKey = e.used, k
			}
		}
		delete(c.m, lruKey)
	}
	return eng, nil
}

// Len returns the resident engine count.
func (c *EngineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// ServiceStats snapshots the table and (when attached) cache counters.
func (c *EngineCache) ServiceStats() *ServiceStats {
	st := &ServiceStats{Engines: c.Len(), EngineCapacity: EngineCacheCap}
	if c.shared != nil {
		cs := c.shared.Stats()
		st.CacheHits, st.CacheMisses = cs.Hits, cs.Misses
		st.CacheEntries, st.CacheEvicted = cs.Entries, cs.Evicted
		st.CacheBytes, st.CacheCapacity = cs.Bytes, cs.Capacity
	}
	return st
}

// Observer receives serving telemetry from Do: per-stage latencies and
// per-function outcomes. A nil Observer is valid and free.
type Observer interface {
	// ObserveStage records one completed stage (StageParse, StageAllocate).
	ObserveStage(stage string, seconds float64)
	// ObserveFunc records one allocated function: whether it failed and,
	// when it succeeded, its spill quality (spilled cost / total weight).
	ObserveFunc(failed bool, spillRatio float64)
}

// CoalesceObserver is an optional extension of Observer: observers that
// implement it additionally receive the per-function move report of
// coalescing-biased allocations — the Prometheus move-elimination feed.
type CoalesceObserver interface {
	// ObserveCoalesce records one function allocated under a coalescing
	// policy: the dynamic cost of its move/φ copies and how much of that the
	// biased assignment eliminated.
	ObserveCoalesce(moveCost, eliminatedCost float64)
}

// DegradationObserver is an optional extension of Observer: observers that
// implement it additionally receive degradation-ladder and budget-
// exhaustion events from budget-governed engines.
type DegradationObserver interface {
	// ObserveDegraded records one function served from a degradation-ladder
	// rung ("linear-scan", "spill-all") after the named stage tripped.
	ObserveDegraded(rung, stage string)
	// ObserveBudgetExhausted records one function that failed with a budget
	// error (degradation off), by tripping stage.
	ObserveBudgetExhausted(stage string)
}

// observeFuncErr reports a failed function, tagging budget exhaustion for
// observers that track it.
func observeFuncErr(obs Observer, err error) {
	if obs == nil {
		return
	}
	obs.ObserveFunc(true, 0)
	var be *raerr.BudgetError
	if errors.As(err, &be) {
		if do, ok := obs.(DegradationObserver); ok {
			do.ObserveBudgetExhausted(be.Stage)
		}
	}
}

// Do serves one request against the engine table: resolve the engine for
// the request's configuration, parse the IR, allocate, shape the response.
// decodeErr carries an upstream body-decoding failure into the in-band
// error contract. ctx bounds the allocation (module requests are cancelled
// between functions; a single function is the pipeline's atomic unit).
func Do(ctx context.Context, engines *EngineCache, req Request, decodeErr error, defRegs int, defAlloc, defMachine, defCoalesce string, obs Observer) Response {
	resp := Response{ID: req.ID}
	if decodeErr != nil {
		resp.Error = "bad request: " + decodeErr.Error()
		return resp
	}
	if req.Stats {
		resp.Stats = engines.ServiceStats()
		return resp
	}
	if req.IR != "" && req.Module != "" {
		resp.Error = "bad request: ir and module are mutually exclusive"
		return resp
	}
	if req.IR == "" && req.Module == "" {
		resp.Error = "bad request: one of ir or module is required"
		return resp
	}
	r := req.Registers
	if r == 0 {
		r = defRegs
	}
	allocName := req.Allocator
	if allocName == "" {
		allocName = defAlloc
	}
	machine := req.Machine
	if machine == "" {
		machine = defMachine
	}
	coalesceName := req.Coalesce
	if coalesceName == "" {
		coalesceName = defCoalesce
	}
	resp.Registers = r
	resp.Machine = strings.ToLower(machine)
	eng, err := engines.Get(r, allocName, machine, coalesceName)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	if req.Module != "" {
		return serveModule(ctx, eng, req, resp, obs)
	}

	start := time.Now()
	f, err := irx.Parse(req.IR)
	observeStage(obs, StageParse, start)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	resp.Func = f.Name
	start = time.Now()
	out, err := eng.AllocateFunc(ctx, f)
	observeStage(obs, StageAllocate, start)
	if err != nil {
		observeFuncErr(obs, err)
		resp.Error = err.Error()
		return resp
	}
	fillOutcome(&resp, f, out, req.Print, obs)
	return resp
}

// serveModule is the compilation-unit body of Do.
func serveModule(ctx context.Context, eng *regalloc.Engine, req Request, resp Response, obs Observer) Response {
	start := time.Now()
	m, err := irx.ParseModule(req.Module)
	observeStage(obs, StageParse, start)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	start = time.Now()
	results, err := eng.AllocateModule(ctx, m)
	observeStage(obs, StageAllocate, start)
	if err != nil && results == nil {
		resp.Error = err.Error()
		return resp
	}
	resp.Results = make([]Response, len(results))
	for i := range results {
		fr := &results[i]
		sub := Response{Func: fr.Name, Registers: resp.Registers, Machine: resp.Machine, Cached: fr.Cached}
		if fr.Err != nil {
			observeFuncErr(obs, fr.Err)
			sub.Error = fr.Err.Error()
		} else {
			fillOutcome(&sub, m.Funcs[i], fr.Outcome, req.Print, obs)
		}
		resp.Results[i] = sub
	}
	if err != nil && resp.Error == "" {
		// Partial batch (cancellation): the per-function entries carry
		// their state; surface the module-level error too.
		resp.Error = err.Error()
	}
	return resp
}

// fillOutcome shapes one successful allocation outcome into a response.
func fillOutcome(resp *Response, f *irx.Func, out *regalloc.Outcome, print bool, obs Observer) {
	resp.Func = f.Name
	resp.Allocator = out.Result.Allocator
	resp.Values = out.Problem.N()
	resp.MaxLive = out.MaxLive
	resp.SpillCost = out.SpillCost
	for _, v := range out.SpilledValues {
		resp.Spilled = append(resp.Spilled, f.NameOf(v))
	}
	sort.Strings(resp.Spilled)
	if out.RegisterOf != nil {
		resp.Assignment = make(map[string]int)
		for val, reg := range out.RegisterOf {
			if reg >= 0 {
				resp.Assignment[f.NameOf(val)] = reg
			}
		}
	}
	if print && out.Rewritten != nil {
		resp.Rewritten = out.Rewritten.String()
	}
	if st := out.Coalesce; st != nil {
		resp.Coalesce = &CoalesceInfo{
			Policy:         st.Policy.String(),
			Moves:          st.Moves,
			MoveCost:       st.MoveCost,
			EliminatedCost: st.EliminatedCost,
			ResidualCost:   st.ResidualCost,
			Classes:        st.Classes,
			Merged:         st.Merged,
		}
		if co, ok := obs.(CoalesceObserver); ok {
			co.ObserveCoalesce(st.MoveCost, st.EliminatedCost)
		}
	}
	if out.Degraded != nil {
		resp.Degraded = out.Degraded.Rung
		resp.DegradedStage = out.Degraded.Stage
		if do, ok := obs.(DegradationObserver); ok {
			do.ObserveDegraded(out.Degraded.Rung, out.Degraded.Stage)
		}
	}
	if obs != nil {
		ratio := 0.0
		if tw := out.Problem.TotalWeight(); tw > 0 {
			ratio = out.SpillCost / tw
		}
		obs.ObserveFunc(false, ratio)
	}
}

func observeStage(obs Observer, stage string, start time.Time) {
	if obs != nil {
		obs.ObserveStage(stage, time.Since(start).Seconds())
	}
}
