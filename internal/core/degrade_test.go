package core_test

import (
	"errors"
	"testing"

	"repro/internal/alloc"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/raerr"
	"repro/internal/verify"
)

// greedyAllocator burns the whole step budget inside Allocate, then returns
// the everything-spilled result — the shape of a custom allocator that does
// cooperative charging but cannot finish.
type greedyAllocator struct{}

func (greedyAllocator) Name() string { return "greedy-test" }
func (greedyAllocator) Allocate(p *alloc.Problem) *alloc.Result {
	p.Meter.Charge(1 << 40)
	return &alloc.Result{Allocated: make([]bool, p.N()), Allocator: "greedy-test"}
}

func TestDegradeLinearScanRungOnAllocateTrip(t *testing.T) {
	f := ir.MustParse(core.LoopSrc)
	out, err := core.Run(f, core.Config{
		Registers: 2,
		Allocator: greedyAllocator{},
		Budget:    budget.Limits{Steps: 100_000},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != core.RungLinearScan {
		t.Fatalf("Degraded = %+v, want linear-scan rung", out.Degraded)
	}
	if out.Degraded.Stage != raerr.StageAllocate {
		t.Fatalf("Degraded stage = %q, want allocate", out.Degraded.Stage)
	}
	if out.Result.Allocator != "DLS" {
		t.Fatalf("rung allocator = %s, want DLS", out.Result.Allocator)
	}
	if out.Rewritten == nil || out.RegisterOf == nil {
		t.Fatal("linear-scan rung skipped the rewrite")
	}
	// The Outcome's Problem is decision-level, so the rung's pressure and
	// registers are re-derived from liveness.
	if err := verify.CheckOutcome(out, 2); err != nil {
		t.Fatalf("rung result invalid: %v", err)
	}
	// Without Degrade the same trip is a typed error.
	_, err = core.Run(f, core.Config{
		Registers: 2,
		Allocator: greedyAllocator{},
		Budget:    budget.Limits{Steps: 100_000},
	})
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
