package main

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/outcache"
	"repro/internal/spillcost"
	"repro/regalloc"
	"repro/regalloc/workload"
)

// diffOutcomes names the first field in which two outcomes differ, or "".
func diffOutcomes(want, got *core.Outcome) string {
	switch {
	case !slices.Equal(want.SpilledValues, got.SpilledValues):
		return fmt.Sprintf("spill set %v, want %v", got.SpilledValues, want.SpilledValues)
	case want.SpillCost != got.SpillCost:
		return fmt.Sprintf("spill cost %v, want %v", got.SpillCost, want.SpillCost)
	case !slices.Equal(want.RegisterOf, got.RegisterOf):
		return "register assignment differs"
	case (want.Rewritten == nil) != (got.Rewritten == nil):
		return fmt.Sprintf("rewritten present %v, want %v", got.Rewritten != nil, want.Rewritten != nil)
	case want.Rewritten != nil && want.Rewritten.String() != got.Rewritten.String():
		return "rewritten text differs"
	}
	return ""
}

// TestReplayMatchesEngine pins the stage-by-stage replay to the engine: on
// 300 irgen seeds (strict-SSA and non-SSA alike) plus 8 small giants at R ∈
// {2, 4, 8}, the traced replay gives exactly the engine's spill set, spill
// cost, register assignment and rewritten text. If internal/core changes
// its pipeline, this fails instead of the trace measuring another program.
func TestReplayMatchesEngine(t *testing.T) {
	var inputs []*ir.Func
	for seed := int64(0); seed < 300; seed++ {
		inputs = append(inputs, irgen.FromSeed(seed))
	}
	for i := 0; i < 8; i++ {
		v := 200 + 100*i
		inputs = append(inputs, workload.GenGiant(fmt.Sprintf("giant%d", i), int64(i), v, v/50))
	}
	for _, r := range []int{2, 4, 8} {
		eng, err := regalloc.New(regalloc.WithRegisters(r))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(false)
		rep := newReplayer(r, tr)
		for i, f := range inputs {
			want, werr := eng.AllocateFunc(context.Background(), f.Clone())
			tr.root("func", i)
			got, gerr := rep.allocate(f.Clone())
			tr.finish()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("R=%d %s: engine error %v, replay error %v", r, f.Name, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if d := diffOutcomes(want, got); d != "" {
				t.Fatalf("R=%d %s: replay %s", r, f.Name, d)
			}
		}
	}
}

// TestReplayConstrainedMatchesEngine: probing the constrained driver's
// stages before running it leaves its outcome untouched.
func TestReplayConstrainedMatchesEngine(t *testing.T) {
	for _, name := range machines {
		mach, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Registers: 8, Constraints: mach.Constraints(8),
			Coalescing: coalesce.Aggressive, TrustedCostModel: true}
		eng, err := regalloc.New(regalloc.WithRegisters(8), regalloc.WithMachine(name),
			regalloc.WithCoalescing(regalloc.CoalesceAggressive))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(false)
		rep := newReplayer(8, tr)
		runner := core.NewRunner()
		for seed := int64(0); seed < 100; seed++ {
			f := irgen.ConstrainedFromSeed(seed, cfg.Constraints)
			want, err := eng.AllocateFunc(context.Background(), f.Clone())
			if err != nil {
				t.Fatalf("%s seed %d: engine: %v", name, seed, err)
			}
			tr.root("func", int(seed))
			got, err := rep.allocateConstrained(f.Clone(), runner, cfg)
			tr.finish()
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", name, seed, err)
			}
			if d := diffOutcomes(want, got); d != "" {
				t.Fatalf("%s seed %d: replay %s", name, seed, d)
			}
		}
	}
}

// TestReplayServeMatchesEngine: the service path's replay — cache hits and
// misses through a cache smaller than the distinct shapes — answers every
// request as an uncached engine does.
func TestReplayServeMatchesEngine(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(serviceRegs))
	if err != nil {
		t.Fatal(err)
	}
	mod := workload.GenDuplicated(7, 400, 0.8)
	cache := outcache.New(32)
	fold := fingerprint.NewConfig(serviceRegs, "", spillcost.Model{}, true, nil, 0)
	tr := newTracer(false)
	rep := newReplayer(serviceRegs, tr)
	for i, f := range mod.Funcs {
		src := f.String()
		want, err := eng.AllocateFunc(context.Background(), ir.MustParse(src))
		if err != nil {
			t.Fatalf("%s: engine: %v", f.Name, err)
		}
		tr.root("request", i)
		got, err := rep.serve(src, cache, fold)
		tr.finish()
		if err != nil {
			t.Fatalf("%s: replay: %v", f.Name, err)
		}
		if d := diffOutcomes(want, got); d != "" {
			t.Fatalf("%s: replay %s", f.Name, d)
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache saw %d hits and %d misses; the test needs both", st.Hits, st.Misses)
	}
}
