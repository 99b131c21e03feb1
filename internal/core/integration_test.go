package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/regassign"
)

// TestIntegrationCorpus drives the whole pipeline over the shared IR corpus
// at several register counts with every graph-model allocator, checking the
// cross-module invariants: valid allocations, optimal lower-bounding, a
// verifiable assignment, and a valid rewrite.
func TestIntegrationCorpus(t *testing.T) {
	files, err := filepath.Glob("../ir/testdata/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 2, 3, 6} {
			f := ir.MustParse(string(src))
			optOut, err := Run(f, Config{Registers: r, Allocator: mustAlloc(t, "Optimal")})
			if err != nil {
				t.Fatalf("%s R=%d Optimal: %v", file, r, err)
			}
			for _, name := range []string{"NL", "BL", "FPL", "BFPL", "GC", "LH", "DLS", "BLS"} {
				if !f.SSA && (name == "NL" || name == "BL" || name == "FPL" || name == "BFPL") {
					continue // chordal-only allocators
				}
				out, err := Run(f, Config{Registers: r, Allocator: mustAlloc(t, name)})
				if err != nil {
					t.Fatalf("%s R=%d %s: %v", file, r, name, err)
				}
				if out.SpillCost < optOut.SpillCost-1e-9 {
					t.Fatalf("%s R=%d: %s (%g) beat Optimal (%g)",
						file, r, name, out.SpillCost, optOut.SpillCost)
				}
				if f.SSA && out.Rewritten != nil {
					if err := out.Rewritten.Validate(); err != nil {
						t.Fatalf("%s R=%d %s rewrite: %v", file, r, name, err)
					}
				}
				if f.SSA && out.RegisterOf != nil {
					for val, reg := range out.RegisterOf {
						if reg != regassign.NoReg && (reg < 0 || reg >= r) {
							t.Fatalf("%s R=%d %s: register %d for %s out of range",
								file, r, name, reg, f.NameOf(val))
						}
					}
				}
			}
		}
	}
}

func mustAlloc(t *testing.T, name string) alloc.Allocator {
	t.Helper()
	a, err := AllocatorByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
