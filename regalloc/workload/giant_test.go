package workload_test

import (
	"context"
	"errors"
	"testing"

	"repro/regalloc"
	"repro/regalloc/workload"
)

// TestGenGiantShape: the giant generator hits its size targets and the
// output is a valid strict-SSA function.
func TestGenGiantShape(t *testing.T) {
	for _, tc := range []struct{ values, blocks int }{
		{1_000, 10}, {10_000, 50}, {10_000, 1},
	} {
		f := workload.GenGiant("giant", 7, tc.values, tc.blocks)
		if !f.SSA {
			t.Fatalf("%d/%d: giant function is not SSA", tc.values, tc.blocks)
		}
		if f.NumValues != tc.values {
			t.Errorf("%d/%d: generated %d values", tc.values, tc.blocks, f.NumValues)
		}
		if len(f.Blocks) != tc.blocks {
			t.Errorf("%d/%d: generated %d blocks", tc.values, tc.blocks, len(f.Blocks))
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%d/%d: %v", tc.values, tc.blocks, err)
		}
	}
	// Determinism: same arguments, same function.
	a := workload.GenGiant("giant", 11, 5_000, 20)
	b := workload.GenGiant("giant", 11, 5_000, 20)
	if a.String() != b.String() {
		t.Fatal("GenGiant is not deterministic")
	}
}

// TestGiantDegradesNotFails: a giant function against a small step budget
// is the degradation ladder's reason to exist — with WithDegradation the
// engine serves a correct lower-quality outcome instead of failing, and
// without it the same run fails with the typed budget error.
func TestGiantDegradesNotFails(t *testing.T) {
	f := workload.GenGiant("giant", 3, 20_000, 80)
	budget := regalloc.Budget{Steps: 10_000} // far below a 20k-value run

	eng, err := regalloc.New(regalloc.WithRegisters(8),
		regalloc.WithBudget(budget), regalloc.WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.AllocateFunc(context.Background(), f)
	if err != nil {
		t.Fatalf("governed engine failed instead of degrading: %v", err)
	}
	if out.Degraded == nil {
		t.Fatal("a 20k-value function under a 10k-step budget did not degrade")
	}
	if out.Degraded.Rung != regalloc.RungLinearScan && out.Degraded.Rung != regalloc.RungSpillAll {
		t.Fatalf("unknown degradation rung %q", out.Degraded.Rung)
	}
	if out.Rewritten == nil || out.RegisterOf == nil {
		t.Fatal("degraded outcome is missing its rewritten function or assignment")
	}
	if err := out.Rewritten.Validate(); err != nil {
		t.Fatalf("degraded rewritten function invalid: %v", err)
	}

	// Same budget, degradation off: the typed failure.
	strict, err := regalloc.New(regalloc.WithRegisters(8), regalloc.WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.AllocateFunc(context.Background(), f); !errors.Is(err, regalloc.ErrBudgetExceeded) {
		t.Fatalf("strict engine error %v does not wrap ErrBudgetExceeded", err)
	}

	// Ample budget: the same function allocates cleanly, proving the size
	// itself is tractable and only the budget forced the rung.
	ample, err := regalloc.New(regalloc.WithRegisters(8),
		regalloc.WithBudget(regalloc.Budget{Steps: 1 << 40}), regalloc.WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	out, err = ample.AllocateFunc(context.Background(), f)
	if err != nil || out.Degraded != nil {
		t.Fatalf("ample budget: err %v, degraded %+v", err, out.Degraded)
	}
}

// TestGiantAdmissionGate: the MaxValues admission gate trips before any
// analysis work; with degradation on the function is still served.
func TestGiantAdmissionGate(t *testing.T) {
	f := workload.GenGiant("giant", 5, 5_000, 20)
	eng, err := regalloc.New(regalloc.WithRegisters(8),
		regalloc.WithBudget(regalloc.Budget{MaxValues: 1_000}), regalloc.WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.AllocateFunc(context.Background(), f)
	if err != nil {
		t.Fatalf("admission-gated engine failed instead of degrading: %v", err)
	}
	if out.Degraded == nil || out.Degraded.Stage != "admission" {
		t.Fatalf("expected an admission-stage degradation, got %+v", out.Degraded)
	}
}
