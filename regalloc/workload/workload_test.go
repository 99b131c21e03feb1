package workload_test

import (
	"context"
	"testing"

	"repro/regalloc"
	"repro/regalloc/workload"
)

func TestGenerateModuleDeterministic(t *testing.T) {
	a := workload.GenerateModule(7, 12)
	b := workload.GenerateModule(7, 12)
	if len(a.Funcs) != 12 {
		t.Fatalf("generated %d functions, want 12", len(a.Funcs))
	}
	if a.String() != b.String() {
		t.Error("same seed generated different modules")
	}
	if c := workload.GenerateModule(8, 12); a.String() == c.String() {
		t.Error("different seeds generated identical modules")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	shape := workload.Shape{Params: 3, Segments: 4, MaxDepth: 2, StraightLen: 6, LoopProb: 0.4, BranchProb: 0.4, Carried: 2}
	f1 := workload.GenSSA("g", 5, shape)
	f2 := workload.GenSSA("g", 5, shape)
	if f1.String() != f2.String() {
		t.Error("GenSSA is not deterministic")
	}
	if !f1.SSA {
		t.Error("GenSSA generated a non-SSA function")
	}

	nshape := workload.NonSSAShape{Vars: 6, Params: 2, Segments: 3, MaxDepth: 2, StraightLen: 5, LoopProb: 0.3, BranchProb: 0.4}
	n1 := workload.GenNonSSA("h", 5, nshape)
	n2 := workload.GenNonSSA("h", 5, nshape)
	if n1.String() != n2.String() {
		t.Error("GenNonSSA is not deterministic")
	}

	s1 := workload.GenerateFunc(123)
	s2 := workload.GenerateFunc(123)
	if s1.String() != s2.String() {
		t.Error("GenerateFunc is not deterministic")
	}
}

// TestGenDuplicatedRate: the duplication knob controls content-level
// redundancy, observable through the outcome cache — alpha-renamed copies
// hit, unique bodies miss.
func TestGenDuplicatedRate(t *testing.T) {
	const n = 60
	hits := func(dup float64) uint64 {
		t.Helper()
		m := workload.GenDuplicated(21, n, dup)
		if len(m.Funcs) != n {
			t.Fatalf("generated %d functions, want %d", len(m.Funcs), n)
		}
		eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithCache(4*n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AllocateModule(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		return eng.CacheStats().Hits
	}
	if h := hits(0); h != 0 {
		t.Errorf("dupRate=0 produced %d cache hits, want 0 (all bodies unique)", h)
	}
	// With 90% duplication over 60 functions, a run must hit the cache many
	// times; 2Q admission costs the second sighting of each body, so the
	// bound is loose.
	if h := hits(0.9); h < 10 {
		t.Errorf("dupRate=0.9 produced only %d cache hits, want ≥ 10", h)
	}
}

func TestSuites(t *testing.T) {
	if len(workload.AllSuites) < 4 {
		t.Fatalf("%d suites, want the paper's 4", len(workload.AllSuites))
	}
	for _, s := range workload.AllSuites {
		if s.Name == "" || s.Load == nil || len(s.Registers) == 0 {
			t.Errorf("suite incomplete: %+v", s.Name)
			continue
		}
		for _, p := range s.Load() {
			if p.F == nil {
				t.Errorf("suite %s program %s has no function", s.Name, p.Name)
			}
		}
	}
	if _, ok := workload.SuiteByName("eembc"); !ok {
		t.Error("eembc suite not resolvable by name")
	}
	if _, ok := workload.SuiteByName("no-such-suite"); ok {
		t.Error("unknown suite name resolved")
	}
}

func TestAllocatorLineups(t *testing.T) {
	chordal := workload.AllocatorNames(workload.ChordalAllocators())
	jit := workload.AllocatorNames(workload.JITAllocators())
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"BFPL", "Optimal"} {
		if !has(chordal, want) {
			t.Errorf("chordal lineup %v missing %s", chordal, want)
		}
	}
	for _, want := range []string{"LH", "Optimal"} {
		if !has(jit, want) {
			t.Errorf("JIT lineup %v missing %s", jit, want)
		}
	}
}
