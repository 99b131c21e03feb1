package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc/optimal"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/raerr"
	"repro/internal/regassign"
	"repro/internal/spillcost"
)

const loopSrc = `
func loop ssa {
b0:
  n = param 0
  k = param 1
  m = param 2
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  t = arith i, k
  j = arith t, m
  br b1
b3:
  r = arith i, k
  ret r
}`

func TestRunPipelineSSA(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxLive < 3 {
		t.Fatalf("MaxLive = %d, expected pressure above 2", out.MaxLive)
	}
	if len(out.SpilledValues) == 0 {
		t.Fatal("expected spills with R=2")
	}
	if out.Rewritten == nil || out.RegisterOf == nil {
		t.Fatal("rewrite products missing")
	}
	if !strings.Contains(out.Rewritten.String(), "reload") {
		t.Fatal("no reload in rewritten function")
	}
	// All allocated values have registers < R; spilled values have none.
	spilled := map[int]bool{}
	for _, v := range out.SpilledValues {
		spilled[v] = true
	}
	for vx, al := range out.Result.Allocated {
		val := out.ValueOf[vx]
		if al && (out.RegisterOf[val] < 0 || out.RegisterOf[val] >= 2) {
			t.Fatalf("allocated value %s has register %d", f.NameOf(val), out.RegisterOf[val])
		}
		if !al && out.RegisterOf[val] != regassign.NoReg {
			t.Fatalf("spilled value %s has a register", f.NameOf(val))
		}
	}
}

func TestRunNoSpillWhenEnoughRegisters(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SpilledValues) != 0 {
		t.Fatalf("spilled %v with 8 registers", out.SpilledValues)
	}
	if out.SpillCost != 0 {
		t.Fatalf("SpillCost = %g", out.SpillCost)
	}
}

func TestRunWithExplicitAllocator(t *testing.T) {
	f := ir.MustParse(loopSrc)
	opt, err := AllocatorByName("Optimal")
	if err != nil {
		t.Fatal(err)
	}
	outOpt, err := Run(f, Config{Registers: 2, Allocator: opt})
	if err != nil {
		t.Fatal(err)
	}
	outDef, err := Run(ir.MustParse(loopSrc), Config{Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if outDef.SpillCost < outOpt.SpillCost {
		t.Fatalf("heuristic (%g) beat optimal (%g)", outDef.SpillCost, outOpt.SpillCost)
	}
	if _, ok := opt.(*optimal.Allocator); !ok {
		t.Fatal("AllocatorByName(Optimal) wrong type")
	}
}

func TestRunNonSSAUsesLH(t *testing.T) {
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
	out, err := Run(f, Config{Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Allocator != "LH" {
		t.Fatalf("default non-SSA allocator = %s, want LH", out.Result.Allocator)
	}
	if out.Rewritten != nil {
		t.Fatal("rewrite attempted on non-SSA function")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	f := ir.MustParse(loopSrc)
	if _, err := Run(f, Config{Registers: 0}); err == nil {
		t.Fatal("R=0 accepted")
	}
}

// TestRunRejectsHugeRegisterCount: a register count beyond any target is a
// typed configuration error before any table is sized by it (at 1<<40 the
// assigner's tables alone would exhaust memory).
func TestRunRejectsHugeRegisterCount(t *testing.T) {
	f := ir.MustParse(loopSrc)
	for _, regs := range []int{maxRegisters + 1, 1 << 40} {
		if _, err := Run(f, Config{Registers: regs}); !errors.Is(err, raerr.ErrInvalidConfig) {
			t.Errorf("%d registers: err = %v, want ErrInvalidConfig", regs, err)
		}
	}
	if _, err := Run(f, Config{Registers: maxRegisters}); err != nil {
		t.Errorf("%d registers refused: %v", maxRegisters, err)
	}
}

func TestRunSkipRewrite(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{Registers: 2, SkipRewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rewritten != nil || out.RegisterOf != nil {
		t.Fatal("rewrite ran despite SkipRewrite")
	}
}

func TestAllocatorByNameRegistry(t *testing.T) {
	for _, name := range AllocatorNames() {
		a, err := AllocatorByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("AllocatorByName(%s).Name() = %s", name, a.Name())
		}
	}
	if _, err := AllocatorByName("bogus"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
}

func TestRunAllNamedAllocatorsOnChordal(t *testing.T) {
	// Graph-model allocators (not linear scan) all run through the
	// pipeline on an SSA function.
	for _, name := range []string{"NL", "BL", "FPL", "BFPL", "GC", "Optimal", "DLS", "BLS", "LH"} {
		a, _ := AllocatorByName(name)
		f := ir.MustParse(loopSrc)
		out, err := Run(f, Config{Registers: 2, Allocator: a})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.SpillCost < 0 {
			t.Fatalf("%s: negative spill cost", name)
		}
	}
}

// TestZeroCostValueKeptAcrossLayeredVariants is the end-to-end regression
// test for the zero-cost-value inconsistency: with a stores-are-free cost
// model, a defined-but-unused value has spill cost 0, and NL used to spill
// it (Frank's algorithm never selects zero-weight vertices) while BL kept
// it — inserting needless spill code in the NL rewrite. With registers
// idle, every layered variant must keep it and the rewrite must gain no
// spill or reload instructions.
func TestZeroCostValueKeptAcrossLayeredVariants(t *testing.T) {
	src := `
func deadcheap ssa {
b0:
  a = param 0
  d = unary a
  b = arith a, a
  ret b
}`
	model := spillcost.Model{LoopBase: 10, StoreFactor: 0}
	for _, name := range []string{"NL", "BL", "FPL", "BFPL"} {
		f := ir.MustParse(src)
		a, err := AllocatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(f, Config{Registers: 4, Allocator: a, CostModel: model})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.SpilledValues) != 0 {
			names := make([]string, len(out.SpilledValues))
			for i, v := range out.SpilledValues {
				names[i] = f.NameOf(v)
			}
			t.Fatalf("%s: spilled %v with registers idle", name, names)
		}
		if out.Rewritten == nil {
			t.Fatalf("%s: no rewrite produced", name)
		}
		for _, b := range out.Rewritten.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpSpill || ins.Op == ir.OpReload {
					t.Fatalf("%s: rewrite gained spill code: %s", name, out.Rewritten)
				}
			}
		}
	}
}

// wideSrc returns an SSA function whose n parameters are all live at once:
// each is consumed by a chain of arithmetic after the last one is defined.
func wideSrc(n int) string {
	var b strings.Builder
	b.WriteString("func wide ssa {\nb0:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  p%d = param %d\n", i, i)
	}
	b.WriteString("  s1 = arith p0, p1\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  s%d = arith s%d, p%d\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  ret s%d\n}", n-1)
	return b.String()
}

// TestUnconstrainedBeyond64Registers: a plain register file is not bounded
// by the 64-per-class limit of machine classes. 70 values live at once at
// R=100 allocate without spills, the top ones take registers ≥ 64, and the
// assignment verifies; a scan with fewer registers than the pressure still
// reports the unconstrained failure.
func TestUnconstrainedBeyond64Registers(t *testing.T) {
	f := ir.MustParse(wideSrc(70))
	out, err := Run(f, Config{Registers: 100})
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxLive != 70 || len(out.SpilledValues) != 0 {
		t.Fatalf("maxlive %d, spilled %v; want 70 live and no spills", out.MaxLive, out.SpilledValues)
	}
	high := 0
	for _, reg := range out.RegisterOf {
		if reg >= 100 {
			t.Fatalf("register %d outside R=100", reg)
		}
		if reg >= 64 {
			high++
		}
	}
	if high == 0 {
		t.Fatal("no value took a register ≥ 64")
	}
	info := liveness.Compute(f)
	allocated := make([]bool, f.NumValues)
	for i := range allocated {
		allocated[i] = true
	}
	if err := regassign.VerifyAssignment(info, allocated, out.RegisterOf); err != nil {
		t.Fatal(err)
	}

	_, err = regassign.AssignBiasedBudget(f, f.ComputeDominance(), info, allocated, 8, nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no free register for") ||
		!strings.Contains(err.Error(), "(pressure exceeds 8)") {
		t.Fatalf("stuck scan err = %v, want a no-free-register pressure error", err)
	}
}

// TestCostModelValidatedByRun: meaningless cost models are rejected before
// allocation instead of producing garbage costs.
func TestCostModelValidatedByRun(t *testing.T) {
	f := ir.MustParse(`
func v ssa {
b0:
  a = param 0
  ret a
}`)
	_, err := Run(f, Config{Registers: 2, CostModel: spillcost.Model{LoopBase: -3, StoreFactor: 1}})
	if err == nil {
		t.Fatal("negative LoopBase accepted")
	}
}
