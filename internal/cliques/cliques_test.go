package cliques

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
	"repro/internal/stable"
)

// deriveFor computes the structure for f, or nil.
func deriveFor(t *testing.T, f *ir.Func, scratch *Scratch) *Structure {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid input: %v", err)
	}
	dom := f.ComputeDominance()
	if !Applicable(f, dom) {
		return nil
	}
	return Derive(liveness.Compute(f), dom, scratch)
}

// TestDeriveMatchesIFG cross-checks every derived fact against the explicit
// interference-graph build over a few hundred generated functions: same
// vertex numbering, same edge set, same degrees, a valid PEO, and identical
// Frank stable sets under random weights.
func TestDeriveMatchesIFG(t *testing.T) {
	scratch := NewScratch()
	rng := rand.New(rand.NewSource(99))
	applicable := 0
	for seed := int64(0); seed < 300; seed++ {
		f := irgen.FromSeed(seed)
		cs := deriveFor(t, f, scratch)
		if cs == nil {
			continue
		}
		applicable++
		b := ifg.FromLiveness(liveness.Compute(f))

		// Vertex numbering must be byte-identical.
		if len(cs.ValueOf) != len(b.ValueOf) {
			t.Fatalf("seed %d: %d vertices, ifg has %d", seed, len(cs.ValueOf), len(b.ValueOf))
		}
		for vx := range cs.ValueOf {
			if cs.ValueOf[vx] != b.ValueOf[vx] {
				t.Fatalf("seed %d: ValueOf[%d] = %d, ifg %d", seed, vx, cs.ValueOf[vx], b.ValueOf[vx])
			}
		}
		for v := range cs.VertexOf {
			if cs.VertexOf[v] != b.VertexOf[v] {
				t.Fatalf("seed %d: VertexOf[%d] mismatch", seed, v)
			}
		}
		if cs.MaxLive != b.MaxLive {
			t.Fatalf("seed %d: MaxLive %d vs %d", seed, cs.MaxLive, b.MaxLive)
		}

		// The materialized graph must equal the ifg graph exactly.
		g := cs.BuildGraph()
		if g.N() != b.Graph.N() || g.M() != b.Graph.M() {
			t.Fatalf("seed %d: graph size %d/%d vs %d/%d", seed, g.N(), g.M(), b.Graph.N(), b.Graph.M())
		}
		for v := 0; v < g.N(); v++ {
			gu, bu := g.Neighbors(v), b.Graph.Neighbors(v)
			if len(gu) != len(bu) {
				t.Fatalf("seed %d: vertex %d degree %d vs %d", seed, v, len(gu), len(bu))
			}
			for i := range gu {
				if gu[i] != bu[i] {
					t.Fatalf("seed %d: vertex %d neighbor %d vs %d", seed, v, gu[i], bu[i])
				}
			}
		}

		// Degrees computed from def sets alone must match graph degrees.
		deg := cs.Degrees()
		for v := 0; v < g.N(); v++ {
			if deg[v] != g.Degree(v) {
				t.Fatalf("seed %d: degree[%d] = %d, graph %d", seed, v, deg[v], g.Degree(v))
			}
		}

		// The dominance order must be a perfect elimination order.
		if !b.Graph.IsPerfectEliminationOrder(cs.PEO) {
			t.Fatalf("seed %d: dominance order is not a PEO", seed)
		}

		// Every def set must contain its vertex and be one of the live sets.
		for v := 0; v < cs.N; v++ {
			set := cs.Sets[cs.DefSetOf[v]]
			found := false
			for _, u := range set {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: def set of %d does not contain it", seed, v)
			}
		}

		// Frank on cliques must equal Frank on the graph with the same
		// order, for several random weightings.
		var fs FrankScratch
		for trial := 0; trial < 4; trial++ {
			w := make([]float64, cs.N)
			for i := range w {
				if rng.Intn(5) == 0 {
					w[i] = 0 // exercise the zero-weight skip
				} else {
					w[i] = float64(1 + rng.Intn(50))
				}
			}
			got := append([]int(nil), cs.MaxWeightStable(w, &fs)...)
			want := stable.MaxWeightChordal(b.Graph, cs.PEO, w)
			if len(got) != len(want) {
				t.Fatalf("seed %d: stable set size %d vs %d (got %v want %v)",
					seed, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: stable set %v vs %v", seed, got, want)
				}
			}
		}

		// The CSR membership index agrees with the sets.
		for ci, set := range cs.Sets {
			for _, v := range set {
				found := false
				for _, c := range cs.CliquesOf(v) {
					if int(c) == ci {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("seed %d: clique %d missing from CliquesOf(%d)", seed, ci, v)
				}
			}
		}
	}
	if applicable < 50 {
		t.Fatalf("only %d of 300 seeds took the fast path; gate too strict?", applicable)
	}
	t.Logf("fast path applicable on %d/300 seeds", applicable)
}

// TestScratchReuseIsDeterministic ensures a reused scratch yields the same
// structure as a fresh one.
func TestScratchReuseIsDeterministic(t *testing.T) {
	scratch := NewScratch()
	for seed := int64(0); seed < 60; seed++ {
		f := irgen.FromSeed(seed)
		reused := deriveFor(t, f, scratch)
		fresh := deriveFor(t, f, nil)
		if (reused == nil) != (fresh == nil) {
			t.Fatalf("seed %d: reuse %v vs fresh %v", seed, reused == nil, fresh == nil)
		}
		if reused == nil {
			continue
		}
		if len(reused.Sets) != len(fresh.Sets) {
			t.Fatalf("seed %d: %d sets vs %d", seed, len(reused.Sets), len(fresh.Sets))
		}
		for i := range reused.Sets {
			a, b := reused.Sets[i], fresh.Sets[i]
			if len(a) != len(b) {
				t.Fatalf("seed %d: set %d differs", seed, i)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d: set %d differs", seed, i)
				}
			}
		}
		for v := range reused.PEO {
			if reused.PEO[v] != fresh.PEO[v] {
				t.Fatalf("seed %d: PEO differs at %d", seed, v)
			}
		}
	}
}

// TestApplicableGate pins the gate decisions: SSA with inert dead blocks is
// in; non-SSA and dead blocks with code are out.
func TestApplicableGate(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"plain ssa", "func f ssa {\nb0:\n  a = param 0\n  ret a\n}", true},
		{"inert dead block", "func f ssa {\nb0:\n  a = param 0\n  ret a\nb1:\n  ret\n}", true},
		{"dead block with def", "func f ssa {\nb0:\n  a = param 0\n  ret a\nb1:\n  b = const 1\n  ret\n}", false},
		{"non-ssa", "func f {\nb0:\n  a = param 0\n  ret a\n}", false},
	}
	for _, tc := range cases {
		f, err := ir.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dom := f.ComputeDominance()
		if got := Applicable(f, dom); got != tc.want {
			t.Errorf("%s: Applicable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMaximalCliquesAreDefSets checks the theory the fast path rests on:
// every maximal clique of the interference graph appears among the derived
// live sets (as the def-point set of its last-defined member).
func TestMaximalCliquesAreDefSets(t *testing.T) {
	scratch := NewScratch()
	for seed := int64(300); seed < 420; seed++ {
		f := irgen.FromSeed(seed)
		cs := deriveFor(t, f, scratch)
		if cs == nil {
			continue
		}
		g := cs.BuildGraph()
		for _, mc := range g.MaximalCliques(cs.PEO) {
			mcs := append([]int(nil), mc...)
			sort.Ints(mcs)
			found := false
			for _, set := range cs.Sets {
				if len(set) != len(mcs) {
					continue
				}
				same := true
				for i := range set {
					if set[i] != mcs[i] {
						same = false
						break
					}
				}
				if same {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: maximal clique %v not among the live sets", seed, mcs)
			}
		}
	}
}

// TestDeriveSetsDeduplicated: Derive is where program-point live sets are
// deduplicated, so no two of its Sets are equal.
func TestDeriveSetsDeduplicated(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  d = arith c, b
  e = arith d, a
  ret e
}`)
	cs := deriveFor(t, f, nil)
	if cs == nil {
		t.Fatal("derivation failed")
	}
	seen := map[string]bool{}
	for _, s := range cs.Sets {
		key := fmt.Sprint(s)
		if seen[key] {
			t.Fatalf("duplicate live set %v in %v", s, cs.Sets)
		}
		seen[key] = true
	}
}
