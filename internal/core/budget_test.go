package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/alloc/layered"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/raerr"
	"repro/internal/regassign"
)

func TestBudgetTripWithoutDegradeIsTypedError(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, err := Run(f, Config{Registers: 2, Budget: budget.Limits{Steps: 1}})
	if err == nil {
		t.Fatal("tiny step budget without Degrade succeeded")
	}
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *raerr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want to carry *raerr.BudgetError", err)
	}
	if be.Stage != raerr.StageLiveness {
		t.Fatalf("trip stage = %q, want liveness (first metered stage)", be.Stage)
	}
	var fe *raerr.FuncError
	if !errors.As(err, &fe) || fe.Func != f.Name {
		t.Fatalf("err = %v, want FuncError for %s", err, f.Name)
	}
}

func TestDegradeSpillAllOnTinyBudget(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{Registers: 2, Budget: budget.Limits{Steps: 1}, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll {
		t.Fatalf("Degraded = %+v, want spill-all rung", out.Degraded)
	}
	if out.Degraded.Stage != raerr.StageLiveness || out.Degraded.Reason == nil {
		t.Fatalf("Degraded = %+v, want liveness stage with a reason", out.Degraded)
	}
	if out.Result.Allocator != "spill-all" {
		t.Fatalf("Allocator = %s", out.Result.Allocator)
	}
	for _, al := range out.Result.Allocated {
		if al {
			t.Fatal("spill-all outcome kept a value in a register")
		}
	}
	if out.Rewritten == nil {
		t.Fatal("spill-all outcome has no rewrite")
	}
	for v, reg := range out.RegisterOf {
		if reg != regassign.NoReg {
			t.Fatalf("value %s has register %d in a spill-all outcome", f.NameOf(v), reg)
		}
	}
	if err := out.Rewritten.Validate(); err != nil {
		t.Fatalf("spill-all rewrite invalid: %v", err)
	}
	if out.BudgetSpent <= 0 {
		t.Fatal("BudgetSpent not recorded")
	}
}

func TestAdmissionGate(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, err := Run(f, Config{Registers: 2, Budget: budget.Limits{MaxValues: 1}})
	if err == nil || !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("admission without Degrade: err = %v, want ErrBudgetExceeded", err)
	}
	out, err := Run(f, Config{Registers: 2, Budget: budget.Limits{MaxValues: 1}, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll || out.Degraded.Stage != raerr.StageAdmission {
		t.Fatalf("Degraded = %+v, want spill-all via admission", out.Degraded)
	}
}

func TestBudgetedRunMatchesUnbudgeted(t *testing.T) {
	base, err := Run(ir.MustParse(loopSrc), Config{Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ir.MustParse(loopSrc), Config{
		Registers: 2,
		Budget:    budget.Limits{Steps: 10_000_000, Deadline: time.Hour},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded != nil {
		t.Fatalf("ample budget degraded: %+v", out.Degraded)
	}
	if out.BudgetSpent <= 0 {
		t.Fatal("BudgetSpent not recorded")
	}
	if len(base.SpilledValues) != len(out.SpilledValues) {
		t.Fatalf("budgeted run spilled %v, unbudgeted %v", out.SpilledValues, base.SpilledValues)
	}
	for i, v := range base.SpilledValues {
		if out.SpilledValues[i] != v {
			t.Fatalf("budgeted run spilled %v, unbudgeted %v", out.SpilledValues, base.SpilledValues)
		}
	}
}

func TestDegradeOnBlownDeadline(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{
		Registers: 2,
		Budget:    budget.Limits{Deadline: time.Nanosecond},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The trip point depends on where the amortized clock check lands, so
	// only the invariant matters: degraded, never failed, always valid.
	if out.Degraded == nil {
		t.Fatal("blown deadline did not degrade")
	}
	if out.Rewritten != nil {
		if err := out.Rewritten.Validate(); err != nil {
			t.Fatalf("degraded rewrite invalid: %v", err)
		}
	}
}

func TestConstrainedDegradeSpillAll(t *testing.T) {
	f := ir.MustParse(loopSrc)
	cons := arch.ARMv7.Constraints(4)
	_, err := Run(f, Config{Registers: 4, Constraints: cons, Budget: budget.Limits{Steps: 1}})
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	out, err := Run(f, Config{
		Registers: 4, Constraints: cons,
		Budget: budget.Limits{Steps: 1}, Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll {
		t.Fatalf("Degraded = %+v, want spill-all", out.Degraded)
	}
	for v, reg := range out.RegisterOf {
		if reg != regassign.NoReg {
			t.Fatalf("value %s kept register %d", f.NameOf(v), reg)
		}
	}
}

// Satellite regression: malformed problems routed to the layered family are
// typed errors, not panics.
func TestLayeredOnNonSSAIsTypedError(t *testing.T) {
	f := ir.MustParse(`
func ns {
b0:
  x = param 0
  y = param 1
  z = arith x, y
  x = arith z, z
  store x, z
  ret z
}`)
	// unregisteredNL's name is unknown to the registry, so the ChordalOnly
	// gate lets it through and only the ProblemChecker gate stands between
	// the non-chordal instance and the allocator's internal panic.
	_, err := Run(f, Config{Registers: 2, Allocator: unregisteredNL{layered.NL()}})
	if err == nil {
		t.Fatal("non-SSA function through a layered allocator succeeded")
	}
	if !errors.Is(err, raerr.ErrNotSSA) {
		t.Fatalf("err = %v, want ErrNotSSA", err)
	}
}

// unregisteredNL is NL under a name the allocator registry does not know.
type unregisteredNL struct{ *layered.Allocator }

func (unregisteredNL) Name() string { return "custom-nl" }
