package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/budget"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/pipeline"
)

// unconstrainedGoldenDigest is the SHA-256 of the detailed FormatResults
// rendering plus every outcome's BudgetSpent over the
// TestUnconstrainedOutcomesGolden matrix. Any change to it is a change of
// allocation output or of budget accounting.
const unconstrainedGoldenDigest = "0c2895da4a09ec7e8cdb6b71e8f898245f37a4bff2268dd3ab43212ddf8f069c"

// goldenBudget is one budget axis point of the outcome goldens.
type goldenBudget struct {
	name string
	// limits returns the budget of function f at input index i, and whether
	// a trip degrades instead of failing.
	limits func(i int, f *ir.Func) (budget.Limits, bool)
}

// goldenBudgets: none, a generous step budget that never trips (it prices
// the metering itself), and a tight one whose limit cycles through 1–24×
// the function size so the trips land in every stage of the ladder (a run
// spends about 10–25 steps per value).
var goldenBudgets = []goldenBudget{
	{"none", func(int, *ir.Func) (budget.Limits, bool) { return budget.Limits{}, false }},
	{"generous", func(int, *ir.Func) (budget.Limits, bool) { return budget.Limits{Steps: 1 << 40}, false }},
	{"tight+degrade", func(i int, f *ir.Func) (budget.Limits, bool) {
		return budget.Limits{Steps: int64(f.NumValues) * int64(1+i%24)}, true
	}},
}

// goldenCorpus returns the functions of the checked-in IR corpus followed
// by n irgen seeds.
func goldenCorpus(t *testing.T, n int) []*ir.Func {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v", err)
	}
	modules, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "modules", "*.ir"))
	var funcs []*ir.Func
	for _, path := range append(paths, modules...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		funcs = append(funcs, m.Funcs...)
	}
	for seed := int64(0); seed < int64(n); seed++ {
		funcs = append(funcs, irgen.FromSeed(seed))
	}
	return funcs
}

// TestUnconstrainedOutcomesGolden pins the unconstrained driver's outputs —
// spill sets, costs, registers, rewritten bodies, degradation rungs, errors
// and budget accounting — over the IR corpus and 300 generator seeds ×
// {NL, BL, FPL, BFPL, LH, GC, DLS, BLS} × R∈{2,3,4,8} × {off, conservative,
// aggressive} coalescing × {none, generous, tight+degrade} budgets.
func TestUnconstrainedOutcomesGolden(t *testing.T) {
	funcs := goldenCorpus(t, 300)
	h := sha256.New()
	runner := core.NewRunner()
	batch := make([]pipeline.FuncResult, len(funcs))
	for _, name := range []string{"NL", "BL", "FPL", "BFPL", "LH", "GC", "DLS", "BLS"} {
		a, err := core.AllocatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{2, 3, 4, 8} {
			for _, pol := range []coalesce.Policy{coalesce.Off, coalesce.Conservative, coalesce.Aggressive} {
				for _, b := range goldenBudgets {
					for i, f := range funcs {
						limits, degrade := b.limits(i, f)
						cfg := core.Config{Registers: r, Allocator: a, Coalescing: pol, Budget: limits, Degrade: degrade}
						out, err := runner.Run(f, cfg)
						batch[i] = pipeline.FuncResult{Index: i, Name: f.Name, Outcome: out, Err: err}
					}
					fmt.Fprintf(h, "== %s R=%d coalesce=%s budget=%s\n%s", name, r, pol, b.name,
						pipeline.FormatResults(batch, true))
					for i := range batch {
						if out := batch[i].Outcome; out != nil {
							fmt.Fprintf(h, "%d ", out.BudgetSpent)
						}
					}
					h.Write([]byte{'\n'})
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != unconstrainedGoldenDigest {
		t.Fatalf("unconstrained outcome digest = %s, want %s", got, unconstrainedGoldenDigest)
	}
}
