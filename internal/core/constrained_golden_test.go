package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
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

// TestConstrainedRunnerReuseMatchesFresh runs 300 constrained functions of
// mixed machines, register counts and coalescing policies through one
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
	// Consecutive runs rotate machine, R and policy, so the scratch grows,
	// shrinks and changes class layout from one function to the next.
	names := arch.Names()
	policies := []coalesce.Policy{coalesce.Off, coalesce.Conservative, coalesce.Aggressive}
	runs := make([]run, 300)
	runner := core.NewRunner()
	for i := range runs {
		m, err := arch.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		r := []int{2, 3, 4, 8}[(i/3)%4]
		pol := policies[(i/12)%3]
		cfg := core.Config{Registers: r, Constraints: m.Constraints(r), Coalescing: pol}
		f := irgen.ConstrainedFromSeed(int64(i), cfg.Constraints)
		out, err := runner.Run(f, cfg)
		runs[i] = run{label: fmt.Sprintf("%s R=%d coalesce=%s", m.Name, r, pol),
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
