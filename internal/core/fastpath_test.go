package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// fastPathRegisters is the register sweep of the differential check.
var fastPathRegisters = []int{2, 3, 4, 8}

// diffAllocators are the allocators compared between the two paths. The
// chordal-only layered family, both linear scans, Chaitin–Briggs and the
// general heuristic all run on every fast-path-eligible function; the exact
// solver is swept on a subset (it is exponential in the worst case).
var diffAllocators = []string{"NL", "BL", "FPL", "BFPL", "GC", "DLS", "BLS", "LH"}

// comparePaths runs f through the pipeline twice — fast path and forced
// explicit-graph path — for one allocator and register count, and fails on any
// observable divergence: spill set, spill cost, register assignment, or the
// rewritten function body.
func comparePaths(t *testing.T, f *ir.Func, allocName string, r int) {
	t.Helper()
	a1, err := AllocatorByName(allocName)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := AllocatorByName(allocName)
	fastRunner, legacyRunner := NewRunner(), NewRunner()
	fast, errFast := fastRunner.Run(f, Config{Registers: r, Allocator: a1})
	legacy, errLegacy := legacyRunner.Run(f, Config{Registers: r, Allocator: a2, legacyIFG: true})
	if (errFast != nil) != (errLegacy != nil) {
		t.Fatalf("%s alloc=%s R=%d: fast err=%v legacy err=%v", f.Name, allocName, r, errFast, errLegacy)
	}
	if errFast != nil {
		return
	}
	if fastRunner.cur.cs == nil {
		t.Fatalf("%s alloc=%s R=%d: fast run did not take the fast path", f.Name, allocName, r)
	}
	if legacyRunner.cur.build == nil {
		t.Fatalf("%s alloc=%s R=%d: legacy run did not build an IFG", f.Name, allocName, r)
	}
	if fast.SpillCost != legacy.SpillCost {
		t.Fatalf("%s alloc=%s R=%d: spill cost %v vs %v", f.Name, allocName, r, fast.SpillCost, legacy.SpillCost)
	}
	if fast.MaxLive != legacy.MaxLive {
		t.Fatalf("%s alloc=%s R=%d: maxlive %d vs %d", f.Name, allocName, r, fast.MaxLive, legacy.MaxLive)
	}
	if len(fast.SpilledValues) != len(legacy.SpilledValues) {
		t.Fatalf("%s alloc=%s R=%d: spilled %v vs %v", f.Name, allocName, r, fast.SpilledValues, legacy.SpilledValues)
	}
	for i := range fast.SpilledValues {
		if fast.SpilledValues[i] != legacy.SpilledValues[i] {
			t.Fatalf("%s alloc=%s R=%d: spilled %v vs %v", f.Name, allocName, r, fast.SpilledValues, legacy.SpilledValues)
		}
	}
	if (fast.RegisterOf == nil) != (legacy.RegisterOf == nil) {
		t.Fatalf("%s alloc=%s R=%d: assignment presence differs", f.Name, allocName, r)
	}
	for v := range fast.RegisterOf {
		if fast.RegisterOf[v] != legacy.RegisterOf[v] {
			t.Fatalf("%s alloc=%s R=%d: register of %s: %d vs %d",
				f.Name, allocName, r, f.NameOf(v), fast.RegisterOf[v], legacy.RegisterOf[v])
		}
	}
	if (fast.Rewritten == nil) != (legacy.Rewritten == nil) {
		t.Fatalf("%s alloc=%s R=%d: rewrite presence differs", f.Name, allocName, r)
	}
	if fast.Rewritten != nil && fast.Rewritten.String() != legacy.Rewritten.String() {
		t.Fatalf("%s alloc=%s R=%d: rewritten bodies differ:\n%s\n---\n%s",
			f.Name, allocName, r, fast.Rewritten, legacy.Rewritten)
	}
}

func diffFunc(t *testing.T, f *ir.Func, withOptimal bool) bool {
	dom := f.ComputeDominance()
	if !cliques.Applicable(f, dom) {
		return false
	}
	for _, allocName := range diffAllocators {
		for _, r := range fastPathRegisters {
			comparePaths(t, f, allocName, r)
		}
	}
	if withOptimal {
		for _, r := range fastPathRegisters {
			comparePaths(t, f, "Optimal", r)
		}
	}
	// Default allocator selection (nil Allocator) must agree too.
	fast, errFast := Run(f, Config{Registers: 4})
	legacy, errLegacy := Run(f, Config{Registers: 4, legacyIFG: true})
	if (errFast != nil) != (errLegacy != nil) {
		t.Fatalf("%s default: fast err=%v legacy err=%v", f.Name, errFast, errLegacy)
	}
	if errFast == nil && fast.Result.Allocator != legacy.Result.Allocator {
		t.Fatalf("%s: default allocator %s vs %s", f.Name, fast.Result.Allocator, legacy.Result.Allocator)
	}
	return true
}

// TestFastPathMatchesIFGPath is the fast-path pin: over the checked-in
// corpus and 300 generator seeds, the IFG-free fast path and the legacy
// explicit-graph path must produce identical allocations — spill sets,
// spill costs, register assignments, rewritten bodies — for every
// applicable allocator × R ∈ {2, 3, 4, 8}.
func TestFastPathMatchesIFGPath(t *testing.T) {
	// Corpus files: single functions and modules.
	corpus, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corpus missing: %v", err)
	}
	modules, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "modules", "*.ir"))
	checked := 0
	for _, path := range append(corpus, modules...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range m.Funcs {
			if diffFunc(t, f, true) {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no corpus function exercised the fast path")
	}

	// 300 generator seeds; the exact solver joins every 10th.
	n := 300
	if testing.Short() {
		n = 60
	}
	fastPathCount := 0
	for seed := int64(0); seed < int64(n); seed++ {
		f := irgen.FromSeed(seed)
		if diffFunc(t, f, seed%10 == 0) {
			fastPathCount++
		}
	}
	if fastPathCount < n/6 {
		t.Fatalf("only %d of %d seeds exercised the fast path", fastPathCount, n)
	}
	t.Logf("corpus: %d functions, seeds: %d/%d on the fast path", checked, fastPathCount, n)
}

// TestFastPathRunnerMatchesFresh pins scratch reuse: a Runner recycling all
// its scratch across a batch of functions produces byte-identical outcomes
// to fresh pipelines.
func TestFastPathRunnerMatchesFresh(t *testing.T) {
	runner := NewRunner()
	for seed := int64(500); seed < 650; seed++ {
		f := irgen.FromSeed(seed)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		reused, errReused := runner.Run(f, Config{Registers: 4})
		fresh, errFresh := Run(f, Config{Registers: 4})
		if (errReused != nil) != (errFresh != nil) {
			t.Fatalf("seed %d: reuse err=%v fresh err=%v", seed, errReused, errFresh)
		}
		if errReused != nil {
			continue
		}
		if reused.SpillCost != fresh.SpillCost {
			t.Fatalf("seed %d: spill cost %v vs %v", seed, reused.SpillCost, fresh.SpillCost)
		}
		if strings.Join(spillNames(reused), ",") != strings.Join(spillNames(fresh), ",") {
			t.Fatalf("seed %d: spill sets differ", seed)
		}
		for v := range reused.RegisterOf {
			if reused.RegisterOf[v] != fresh.RegisterOf[v] {
				t.Fatalf("seed %d: assignment differs at %s", seed, f.NameOf(v))
			}
		}
		if (reused.Rewritten == nil) != (fresh.Rewritten == nil) {
			t.Fatalf("seed %d: rewrite presence differs", seed)
		}
		if reused.Rewritten != nil && reused.Rewritten.String() != fresh.Rewritten.String() {
			t.Fatalf("seed %d: rewritten bodies differ", seed)
		}
	}
}

func spillNames(out *Outcome) []string {
	names := make([]string, len(out.SpilledValues))
	for i, v := range out.SpilledValues {
		names[i] = out.F.NameOf(v)
	}
	return names
}
