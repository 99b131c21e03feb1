package coalesce_test

import (
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/spillcost"
)

func prep(t *testing.T, src string) *ir.Func {
	t.Helper()
	f := ir.MustParse(src)
	f.ComputeLoops(f.ComputeDominance())
	return f
}

func derive(f *ir.Func) *cliques.Structure {
	return cliques.Derive(liveness.Compute(f), f.ComputeDominance(), nil)
}

const diamondSrc = `
func d ssa {
b0:
  x = param 0
  c = unary x
  condbr c, b1, b2
b1:
  y = arith x, x
  br b3
b2:
  z = arith x, c
  br b3
b3:
  m = phi [b1: y], [b2: z]
  ret m
}`

func valueNamed(t *testing.T, f *ir.Func, name string) int {
	t.Helper()
	for v := 0; v < f.NumValues; v++ {
		if f.NameOf(v) == name {
			return v
		}
	}
	t.Fatalf("no value named %q", name)
	return -1
}

func TestMovesExtraction(t *testing.T) {
	moves := coalesce.MovesFromFunc(prep(t, diamondSrc), spillcost.DefaultModel)
	// Two φ operands: m←y on the b1 edge, m←z on the b2 edge.
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want 2", moves)
	}
	for _, m := range moves {
		if m.Cost != 1 {
			t.Fatalf("flat-CFG move cost = %g, want 1", m.Cost)
		}
	}
}

func TestAggressiveCoalescesDiamondPhi(t *testing.T) {
	f := prep(t, diamondSrc)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	aff := coalesce.BuildAffinity(derive(f), moves, coalesce.Aggressive, 2, nil)
	// y and z never interfere with m: both moves join one class.
	if aff == nil || aff.Merged != 2 || aff.NumClasses != 1 {
		t.Fatalf("affinity = %+v, want 2 merges into 1 class", aff)
	}
	m := aff.ClassOf[valueNamed(t, f, "m")]
	if m < 0 || aff.ClassOf[valueNamed(t, f, "y")] != m || aff.ClassOf[valueNamed(t, f, "z")] != m {
		t.Fatalf("m, y, z not in one class: %v", aff.ClassOf)
	}
}

func TestLoopPhiMoveCostUsesEdgeFrequency(t *testing.T) {
	moves := coalesce.MovesFromFunc(prep(t, `
func l ssa {
b0:
  n = param 0
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  j = arith i, i
  br b1
b3:
  ret i
}`), spillcost.DefaultModel)
	if len(moves) != 2 {
		t.Fatalf("moves = %v", moves)
	}
	// i←n charged at b0 (1), i←j at b2 (10).
	var costs []float64
	for _, m := range moves {
		costs = append(costs, m.Cost)
	}
	if !(costs[0] == 1 && costs[1] == 10) && !(costs[0] == 10 && costs[1] == 1) {
		t.Fatalf("move costs = %v, want {1, 10}", costs)
	}
}

func genFunc(seed int64) *ir.Func {
	return bench.GenSSA("t", seed, bench.Shape{
		Params: 3, Segments: 3, MaxDepth: 3, StraightLen: 5,
		LoopProb: 0.45, BranchProb: 0.3, Carried: 3, LongLived: 8,
	})
}

// TestPropertyMergedClassesStable: no two values of one affinity class
// interfere, checked against the explicit interference graph.
func TestPropertyMergedClassesStable(t *testing.T) {
	prop := func(seed int64) bool {
		f := genFunc(seed)
		cs := derive(f)
		moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
		aff := coalesce.BuildAffinity(cs, moves, coalesce.Aggressive, 4, nil)
		if aff == nil {
			return true
		}
		g := cs.BuildGraph()
		classes := make(map[int32][]int)
		for v, c := range aff.ClassOf {
			if c >= 0 {
				classes[c] = append(classes[c], cs.VertexOf[v])
			}
		}
		for _, members := range classes {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					if g.HasEdge(members[i], members[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNoMoves(t *testing.T) {
	f := prep(t, `
func s ssa {
b0:
  a = param 0
  ret a
}`)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	if len(moves) != 0 {
		t.Fatalf("moves = %v", moves)
	}
	if aff := coalesce.BuildAffinity(derive(f), moves, coalesce.Aggressive, 2, nil); aff != nil {
		t.Fatalf("phantom coalescing: %+v", aff)
	}
}

// TestPropertyConservativePreservesSimplifiability: with R = MaxLive (the
// graph colours greedily), the Briggs-tested merges keep the merged graph
// fully simplifiable with R registers.
func TestPropertyConservativePreservesSimplifiability(t *testing.T) {
	prop := func(seed int64) bool {
		f := genFunc(seed)
		cs := derive(f)
		r := cs.MaxLive
		aff := coalesce.BuildAffinity(cs, coalesce.MovesFromFunc(f, spillcost.DefaultModel), coalesce.Conservative, r, nil)
		return mergedGraphSimplifies(cs, aff, r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// mergedGraphSimplifies contracts every affinity class of cs's interference
// graph to one node and reports whether repeatedly removing nodes of degree
// < r empties the result.
func mergedGraphSimplifies(cs *cliques.Structure, aff *coalesce.Affinity, r int) bool {
	g := cs.BuildGraph()
	node := make([]int, cs.N) // vertex → contracted node
	for v := range node {
		node[v] = v
	}
	if aff != nil {
		rep := make(map[int32]int)
		for val, c := range aff.ClassOf {
			if c < 0 {
				continue
			}
			v := cs.VertexOf[val]
			if first, ok := rep[c]; ok {
				node[v] = first
			} else {
				rep[c] = v
			}
		}
	}
	adj := make([]map[int]bool, cs.N)
	for v := 0; v < cs.N; v++ {
		if adj[node[v]] == nil {
			adj[node[v]] = map[int]bool{}
		}
		g.VisitNeighbors(v, func(u int) {
			if node[u] != node[v] {
				adj[node[v]][node[u]] = true
			}
		})
	}
	for {
		removed := false
		for v, nbrs := range adj {
			if nbrs == nil {
				continue
			}
			if len(nbrs) < r {
				for u := range nbrs {
					delete(adj[u], v)
				}
				adj[v] = nil
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	for _, nbrs := range adj {
		if nbrs != nil {
			return false
		}
	}
	return true
}
