package core

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/raerr"
)

// threeGPR is a one-class machine with three general-purpose registers, no
// argument registers and no caller-saved ones.
var threeGPR = &arch.Constraints{Machine: "three", Classes: [ir.NumClasses]arch.ClassFile{ir.ClassGPR: {Cap: 3}}}

// TestPinScanContinuesAfterLostPin: at the first point of b1 the cheap
// pinned a loses r0 to the phi b. The remaining pinned values at that point
// (b on r0, c on r1) must still ban their registers for the interfering,
// unpinned d; otherwise d takes r1 in b2 and c is force-spilled for it.
func TestPinScanContinuesAfterLostPin(t *testing.T) {
	f := ir.MustParse(`
func pinscan ssa {
b0:
  a = param 0 !pin=r0
  br b2
b1:                ; preds: b2
  b = phi [b2: x] !pin=r0
  c = phi [b2: y] !pin=r1
  e = arith d, b
  g = arith e, c
  h = arith g, a
  k = arith h, b
  ret k
b2:                ; preds: b0
  x = const 2
  d = unary x
  y = const 1
  br b1
}`)
	out, err := Run(f, Config{Registers: 3, Constraints: threeGPR})
	if err != nil {
		t.Fatal(err)
	}
	val := func(name string) int {
		for v := 0; v < f.NumValues; v++ {
			if f.NameOf(v) == name {
				return v
			}
		}
		t.Fatalf("no value %s", name)
		return -1
	}
	if want := []int{val("a")}; !slices.Equal(out.SpilledValues, want) {
		t.Errorf("spilled %v, want only a %v", out.SpilledValues, want)
	}
	if got := out.RegisterOf[val("d")]; got != ir.MakeReg(ir.ClassGPR, 2) {
		t.Errorf("d holds %s, want r2 (r0 and r1 are pinned across it)", ir.RegName(got))
	}
	if got := out.RegisterOf[val("c")]; got != ir.MakeReg(ir.ClassGPR, 1) {
		t.Errorf("c holds %s, want its pin r1", ir.RegName(got))
	}
}

// TestMachineMismatchNamesLowestValue: with several annotations the machine
// cannot express, the error names the lowest offending value on every run
// (the annotations live in maps, whose iteration order varies).
func TestMachineMismatchNamesLowestValue(t *testing.T) {
	src := `
func fp ssa {
b0:
  a = param 0
  x = unary a !fp
  y = unary a !fp
  z = unary a !fp
  s = arith x, y
  u = arith s, z
  ret u
}`
	cons := arch.ST231.Constraints(4)
	var first string
	for i := 0; i < 50; i++ {
		_, err := Run(ir.MustParse(src), Config{Registers: 4, Constraints: cons})
		if !errors.Is(err, raerr.ErrMachineMismatch) {
			t.Fatalf("run %d: got %v, want ErrMachineMismatch", i, err)
		}
		if i == 0 {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("run %d: error text %q differs from run 0's %q", i, err, first)
		}
	}
	if want := "regalloc: func fp: constrain: " + raerr.ErrMachineMismatch.Error() +
		`: x is fp but machine "st231" has no fp registers`; first != want {
		t.Fatalf("error = %q, want %q", first, want)
	}
}

// rejectingAllocator refuses every problem in CheckProblem and panics if it
// is asked to allocate anyway.
type rejectingAllocator struct{}

func (rejectingAllocator) Name() string { return "reject-test" }
func (rejectingAllocator) Allocate(*alloc.Problem) *alloc.Result {
	panic("rejectingAllocator: Allocate called on a rejected problem")
}
func (rejectingAllocator) CheckProblem(*alloc.Problem) error {
	return errors.New("reject-test refuses every instance")
}

// registerRejecting registers rejectingAllocator once per test binary
// (the registry is global and refuses duplicates under -count).
var registerRejecting sync.Once

// TestConstrainedConsultsProblemChecker: the per-class problems go through
// the allocator's CheckProblem gate like the unconstrained path's, so a
// rejection surfaces as a typed allocate-stage error instead of a panic.
func TestConstrainedConsultsProblemChecker(t *testing.T) {
	registerRejecting.Do(func() {
		alloc.MustRegisterAllocator("reject-test", false, func() alloc.Allocator { return rejectingAllocator{} })
	})
	a, err := AllocatorByName("reject-test")
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParse(`
func small ssa {
b0:
  a = param 0 !pin=r0
  b = unary a
  c = arith a, b
  ret c
}`)
	_, err = Run(f, Config{Registers: 4, Allocator: a, Constraints: arch.ARMv7.Constraints(4)})
	var fe *raerr.FuncError
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Fatalf("got %v, want a *FuncError at stage allocate", err)
	}
}
