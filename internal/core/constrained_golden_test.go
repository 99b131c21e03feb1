package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/pipeline"
)

// constrainedGoldenDigest is the SHA-256 of the detailed FormatResults
// rendering (spill sets, costs, registers, rewritten bodies) of the
// constrained driver over the TestConstrainedOutcomesGolden matrix. Any
// change to it is a change of allocation output.
const constrainedGoldenDigest = "1ee51294ab4f264cd7854584cf4e3ea64ad734a0474353992da79b4fc07f4796"

// TestConstrainedOutcomesGolden pins the constrained driver's outputs over
// 3 machines × R∈{2,3,4,8} × {off, conservative, aggressive} × 100 seeds to
// a digest recorded before the driver's per-class derivation became a
// projection of one clique structure.
func TestConstrainedOutcomesGolden(t *testing.T) {
	h := sha256.New()
	runner := core.NewRunner()
	var batch []pipeline.FuncResult
	cur := ""
	flush := func() {
		if len(batch) > 0 {
			fmt.Fprintf(h, "== %s\n%s", cur, pipeline.FormatResults(batch, true))
		}
		batch = batch[:0]
	}
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{2, 3, 4, 8} {
			cons := m.Constraints(r)
			for _, pol := range []coalesce.Policy{coalesce.Off, coalesce.Conservative, coalesce.Aggressive} {
				flush()
				cur = fmt.Sprintf("%s R=%d coalesce=%s", name, r, pol)
				cfg := core.Config{Registers: r, Constraints: cons, Coalescing: pol}
				for seed := int64(0); seed < 100; seed++ {
					f := irgen.ConstrainedFromSeed(seed, cons)
					out, err := runner.Run(f, cfg)
					batch = append(batch, pipeline.FuncResult{Index: int(seed), Name: f.Name, Outcome: out, Err: err})
				}
			}
		}
	}
	flush()
	if got := hex.EncodeToString(h.Sum(nil)); got != constrainedGoldenDigest {
		t.Fatalf("constrained outcome digest = %s, want %s", got, constrainedGoldenDigest)
	}
}

// constrainedBudgetGoldenDigest is the SHA-256 of every run's BudgetSpent,
// degradation rung and error over the TestConstrainedBudgetGolden matrix.
const constrainedBudgetGoldenDigest = "27aa405745a9452dbf817106ca18ebaf47951d42b059e3ca4d8985d100deb994"

// TestConstrainedBudgetGolden pins the constrained driver's budget
// accounting and ladder over 3 machines × R∈{2,4,8} × 80 seeds × {none,
// generous, tight, tight+degrade}: the step total each run charges, the rung
// a tight budget degrades it to, and the typed error it fails with when it
// may not degrade.
func TestConstrainedBudgetGolden(t *testing.T) {
	h := sha256.New()
	runner := core.NewRunner()
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{2, 4, 8} {
			cons := m.Constraints(r)
			for seed := int64(0); seed < 80; seed++ {
				f := irgen.ConstrainedFromSeed(seed, cons)
				tight := budget.Limits{Steps: int64(f.NumValues) * (1 + seed%24)}
				for _, b := range []struct {
					name    string
					limits  budget.Limits
					degrade bool
				}{
					{"none", budget.Limits{}, false},
					{"generous", budget.Limits{Steps: 1 << 40}, false},
					{"tight", tight, false},
					{"tight+degrade", tight, true},
				} {
					cfg := core.Config{Registers: r, Constraints: cons, Budget: b.limits, Degrade: b.degrade}
					out, err := runner.Run(f, cfg)
					fmt.Fprintf(h, "%s R=%d seed=%d budget=%s: ", name, r, seed, b.name)
					switch {
					case err != nil:
						fmt.Fprintf(h, "ERROR %v\n", err)
					case out.Degraded != nil:
						fmt.Fprintf(h, "spent=%d %s@%s\n", out.BudgetSpent, out.Degraded.Rung, out.Degraded.Stage)
					default:
						fmt.Fprintf(h, "spent=%d\n", out.BudgetSpent)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != constrainedBudgetGoldenDigest {
		t.Fatalf("constrained budget digest = %s, want %s", got, constrainedBudgetGoldenDigest)
	}
}

// TestConstrainedRunnerReuseMatchesFresh runs 400 functions of mixed
// machines (or none), register counts and coalescing policies through one
// Runner, keeps every outcome, and only then compares each against a fresh
// core.Run: an outcome that aliased the Runner's scratch would have been
// overwritten by the later runs.
func TestConstrainedRunnerReuseMatchesFresh(t *testing.T) {
	type run struct {
		label string
		cfg   core.Config
		seed  int64
		f     *ir.Func
		out   *core.Outcome
		err   error
	}
	// Consecutive runs rotate machine (none included: the one-class case),
	// R and policy, so the scratch grows, shrinks and changes class layout
	// from one function to the next.
	names := append(arch.Names(), "none")
	policies := []coalesce.Policy{coalesce.Off, coalesce.Conservative, coalesce.Aggressive}
	runs := make([]run, 400)
	runner := core.NewRunner()
	for i := range runs {
		name := names[i%len(names)]
		r := []int{2, 3, 4, 8}[(i/len(names))%4]
		pol := policies[(i/(4*len(names)))%3]
		cfg := core.Config{Registers: r, Coalescing: pol}
		var f *ir.Func
		if name == "none" {
			f = irgen.FromSeed(int64(i))
		} else {
			m, err := arch.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Constraints = m.Constraints(r)
			f = irgen.ConstrainedFromSeed(int64(i), cfg.Constraints)
		}
		out, err := runner.Run(f, cfg)
		runs[i] = run{label: fmt.Sprintf("%s R=%d coalesce=%s", name, r, pol),
			cfg: cfg, seed: int64(i), f: f, out: out, err: err}
	}
	for _, r := range runs {
		fresh, err := core.Run(r.f, r.cfg)
		if (err == nil) != (r.err == nil) || (err != nil && err.Error() != r.err.Error()) {
			t.Fatalf("%s seed %d: runner err %v, fresh err %v", r.label, r.seed, r.err, err)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(r.out, fresh) {
			t.Fatalf("%s seed %d: runner outcome differs from a fresh run\nrunner: %s\nfresh:  %s",
				r.label, r.seed,
				pipeline.FormatResults([]pipeline.FuncResult{{Name: r.out.F.Name, Outcome: r.out}}, true),
				pipeline.FormatResults([]pipeline.FuncResult{{Name: fresh.F.Name, Outcome: fresh}}, true))
		}
	}
}
