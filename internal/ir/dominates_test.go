package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
)

// idomWalk is Dominates as it was before the tree numbering: climb b's
// immediate-dominator chain until it reaches a or passes it in reverse
// postorder.
func idomWalk(d *ir.Dominance, a, b int) bool {
	if d.Order[b] < 0 || d.Order[a] < 0 {
		return false
	}
	for b != a {
		if d.Order[b] <= d.Order[a] {
			return false
		}
		b = d.Idom[b]
		if b < 0 {
			return false
		}
	}
	return true
}

// TestDominatesMatchesIdomWalk checks the O(1) Dominates against the idom
// chain walk on every block pair of the IR corpus, 300 irgen seeds and
// hand-written functions with unreachable blocks (one of them a cycle that
// branches into reachable code). Dominance comes both fresh and from one
// reused Scratch, so stale numbering from an earlier function would show.
func TestDominatesMatchesIdomWalk(t *testing.T) {
	var funcs []*ir.Func
	files, err := filepath.Glob("testdata/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, ir.MustParse(string(src)))
	}
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, irgen.FromSeed(seed))
	}
	funcs = append(funcs, ir.MustParse(`
func deadcycle {
b0:
  a = param 0
  condbr a, b1, b2
b1:
  br b2
b2:
  ret a
b3:
  br b4
b4:
  condbr a, b3, b1
}`), ir.MustParse(`
func deadentry {
b0:
  br b2
b1:
  br b2
b2:
  ret
}`))
	var scratch ir.Scratch
	pairs, unreachable := 0, 0
	for _, f := range funcs {
		reused, err := scratch.ValidateAnalyzed(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, d := range []*ir.Dominance{f.ComputeDominance(), reused} {
			for a := range f.Blocks {
				if d.Order[a] < 0 {
					unreachable++
				}
				for b := range f.Blocks {
					if got, want := d.Dominates(a, b), idomWalk(d, a, b); got != want {
						t.Fatalf("%s: Dominates(b%d, b%d) = %v, idom walk %v\n%s", f.Name, a, b, got, want, f)
					}
					pairs++
				}
			}
		}
	}
	if unreachable < 10 {
		t.Fatalf("only %d unreachable blocks seen", unreachable)
	}
	t.Logf("%d block pairs, %d unreachable blocks", pairs, unreachable)
}
