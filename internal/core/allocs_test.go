package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// TestRunnerSteadyStateAllocs guards the allocation diet of a warmed
// Runner: a run allocates only what its Outcome keeps (the problem, result,
// vertex maps, clique structure or graph, register map and rewritten
// function), while every transient table — validation, dominance, loops,
// liveness, interning, clustering, verification, rewrite bookkeeping —
// lives on the Runner. The ceilings are the counts measured when the diet
// landed; a new per-run allocation on any of the three paths fails here.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	gen := func(ssa bool) *ir.Func {
		return irgen.Generate("f", 7, irgen.Config{
			SSA: ssa, Params: 3, Segments: 4, MaxDepth: 2, StraightLen: 5,
			LoopProb: 0.3, BranchProb: 0.3, MemProb: 0.2, CallProb: 0.2,
			Carried: 2, LongLived: 6, Vars: 8,
		})
	}
	armv7 := arch.ARMv7.Constraints(8)
	cases := []struct {
		name    string
		f       *ir.Func
		cfg     core.Config
		ceiling float64
	}{
		{"ssa-spills", gen(true), core.Config{Registers: 3}, 38},
		{"non-ssa-lh", gen(false), core.Config{Registers: 3}, 21},
		{"armv7", irgen.ConstrainedFromSeed(7, armv7), core.Config{Registers: 8, Constraints: armv7}, 44},
	}
	runner := core.NewRunner()
	for _, c := range cases {
		out, err := runner.Run(c.f, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "ssa-spills" && len(out.SpilledValues) == 0 {
			t.Fatalf("%s: no spills at R=%d", c.name, c.cfg.Registers)
		}
		if c.name == "non-ssa-lh" && (out.Build == nil || out.Result.Allocator != "LH") {
			t.Fatalf("%s: ran %s, want LH over the explicit graph", c.name, out.Result.Allocator)
		}
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(20, func() {
			if _, err := runner.Run(c.f, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/run (%d values, %d blocks)", c.name, got, c.f.NumValues, len(c.f.Blocks))
		if got > c.ceiling {
			t.Errorf("%s: %v allocs per warmed run, ceiling %v", c.name, got, c.ceiling)
		}
	}
}
