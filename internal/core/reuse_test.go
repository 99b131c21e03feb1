package core_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// TestRunnerReuseMatchesFreshOutcomes pins the Runner-owned analysis: the
// clique structure, the working problem and its intervals are overwritten
// by every run, and the lazily cached parts of the last run (the
// problem's materialized graph, the structure's degree table) must not
// leak into the next. One Runner alternates the allocators that
// materialize the graph (GC, Optimal, LH) with BFPL and coalescing runs,
// over functions in decreasing size — giants, generated SSA and non-SSA
// functions, machine-constrained ones — and keeps every Outcome. Each kept
// Outcome must then deeply equal a fresh core.Run of the same input.
func TestRunnerReuseMatchesFreshOutcomes(t *testing.T) {
	type input struct {
		f   *ir.Func
		cfg core.Config
	}
	funcs := []*ir.Func{
		bench.GenGiant("giant3000", 3, 3000, 60),
		bench.GenGiant("giant1500", 4, 1500, 30),
	}
	for seed := int64(0); seed < 40; seed++ {
		funcs = append(funcs, irgen.FromSeed(seed))
	}
	for _, f := range irgen.GenerateModule(11, 12).Funcs {
		funcs = append(funcs, f)
	}
	slices.SortStableFunc(funcs, func(a, b *ir.Func) int { return cmp.Compare(b.NumValues, a.NumValues) })

	configs := func(f *ir.Func) []core.Config {
		graphAllocs := []string{"GC", "LH"}
		if f.SSA && f.NumValues <= 100 {
			graphAllocs = append(graphAllocs, "Optimal")
		}
		var cfgs []core.Config
		for _, n := range graphAllocs {
			a, err := core.AllocatorByName(n)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, core.Config{Registers: 4, Allocator: a})
			if f.SSA {
				bfpl, _ := core.AllocatorByName("BFPL")
				cfgs = append(cfgs,
					core.Config{Registers: 4, Allocator: bfpl},
					core.Config{Registers: 3, Coalescing: coalesce.Conservative})
			}
		}
		return cfgs
	}
	var inputs []input
	for _, f := range funcs {
		for _, cfg := range configs(f) {
			inputs = append(inputs, input{f, cfg})
		}
	}
	cons := arch.ARMv7.Constraints(8)
	for seed := int64(0); seed < 10; seed++ {
		inputs = append(inputs, input{irgen.ConstrainedFromSeed(seed, cons),
			core.Config{Registers: 8, Constraints: cons, Coalescing: coalesce.Conservative}})
	}

	runner := core.NewRunner()
	kept := make([]*core.Outcome, len(inputs))
	for i, in := range inputs {
		out, err := runner.Run(in.f, in.cfg)
		if err != nil {
			t.Fatalf("%s: %v", describe(in.f, in.cfg), err)
		}
		kept[i] = out
	}
	for i, in := range inputs {
		fresh, err := core.Run(in.f, in.cfg)
		if err != nil {
			t.Fatalf("%s: %v", describe(in.f, in.cfg), err)
		}
		if !reflect.DeepEqual(kept[i], fresh) {
			t.Fatalf("%s: the reused Runner's outcome differs from a fresh run's (spilled %v vs %v)",
				describe(in.f, in.cfg), kept[i].SpilledValues, fresh.SpilledValues)
		}
	}
	t.Logf("%d runs over %d functions", len(inputs), len(funcs)+10)
}

func describe(f *ir.Func, cfg core.Config) string {
	name := "default"
	if cfg.Allocator != nil {
		name = cfg.Allocator.Name()
	}
	return fmt.Sprintf("%s (%d values) %s R=%d coalesce=%s", f.Name, f.NumValues, name, cfg.Registers, cfg.Coalescing)
}
