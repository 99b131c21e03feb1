package core_test

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// TestRunnerSteadyStateAllocs guards the allocation diet of a warmed
// Runner: a run allocates only what its Outcome keeps (the decision-level
// problem, result, vertex maps, register map and rewritten function), while
// every transient table — validation, dominance, loops, liveness, the
// clique structure and its membership index, the working problem and its
// intervals, clustering, verification, rewrite bookkeeping — lives on the
// Runner. The explicit-graph path still builds its graph per run. The
// ceilings are the measured counts; a new per-run allocation on any of the
// three paths fails here.
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
		{"ssa-spills", gen(true), core.Config{Registers: 3}, 18},
		{"non-ssa-lh", gen(false), core.Config{Registers: 3}, 18},
		{"armv7", irgen.ConstrainedFromSeed(7, armv7), core.Config{Registers: 8, Constraints: armv7}, 28},
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
		if c.name == "non-ssa-lh" && (core.InterferencePath(runner) != "ifg" || out.Result.Allocator != "LH") {
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

// TestRunnerGiantBytes guards the memory a warmed Runner allocates per run
// on one giant function (GenGiant, 4000 values, R=8): the Outcome's own
// memory — vertex maps, weights, result, register map and the rewritten
// function — and nothing of the analysis, whose clique structure,
// membership index, working problem and intervals the Runner reuses. The
// byte ceiling is the measured count rounded up to the next 64 KiB; before
// the analysis moved into the Runner a run allocated about 3.3 MB here. The
// allocation ceiling is the measured count: the names of all reload
// temporaries share one string, so it does not grow with the spill count.
func TestRunnerGiantBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews allocation measurements")
	}
	const ceiling = 17 << 16 // bytes per warmed run
	const allocCeiling = 24  // allocations per warmed run
	f := bench.GenGiant("giant4000", 1, 4000, 80)
	runner := core.NewRunner()
	cfg := core.Config{Registers: 8}
	// One run grows the Runner's arenas to the function's size for good.
	if _, err := runner.Run(f, cfg); err != nil {
		t.Fatal(err)
	}
	// The least of three rounds: a GC cycle landing in a round adds a few
	// KiB of runtime bookkeeping that is not the Runner's.
	const runs = 10
	got, allocs := ^uint64(0), ^uint64(0)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := runner.Run(f, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got = min(got, (after.TotalAlloc-before.TotalAlloc)/runs)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
	}
	t.Logf("%d bytes, %d allocations per warmed run (%d values, %d blocks)", got, allocs, f.NumValues, len(f.Blocks))
	if got > ceiling {
		t.Errorf("%d bytes per warmed run, ceiling %d", got, ceiling)
	}
	if allocs > allocCeiling {
		t.Errorf("%d allocations per warmed run, ceiling %d", allocs, allocCeiling)
	}
}
