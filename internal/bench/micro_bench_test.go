package bench

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/chaitin"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/alloc/optimal"
	"repro/internal/graph"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/spillcost"
	"repro/internal/stable"
)

// Micro-benchmarks for the bitset/CSR core at suite sizes (graph
// construction, PEO, liveness, interference build), the chordal-graph
// algorithms (Frank's stable sets, maximal cliques) and each allocator on
// one mid-pressure problem. Run with
//
//	go test ./internal/bench -run '^$' -bench 'Micro|Frank|MaximalCliques|Alloc' -benchmem

// microIntervalEdges returns a deterministic interval-overlap edge list, the
// densest realistic shape for an interference graph.
func microIntervalEdges(n int) [][2]int {
	rng := rand.New(rand.NewSource(42))
	type iv struct{ lo, hi int }
	ivs := make([]iv, n)
	for i := range ivs {
		a, c := rng.Intn(4*n), rng.Intn(4*n)
		if a > c {
			a, c = c, a
		}
		if c-a > n/4 {
			c = a + n/4
		}
		ivs[i] = iv{a, c}
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ivs[i].lo <= ivs[j].hi && ivs[j].lo <= ivs[i].hi {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

func BenchmarkMicroGraphBuild(b *testing.B) {
	const n = 1000
	edges := microIntervalEdges(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		g.Freeze()
	}
}

func BenchmarkMicroPEO(b *testing.B) {
	const n = 1000
	g := graph.New(n)
	for _, e := range microIntervalEdges(n) {
		g.AddEdge(e[0], e[1])
	}
	g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PerfectEliminationOrder()
	}
}

func microFuncs() []*ir.Func {
	var out []*ir.Func
	for seed := int64(500); seed < 508; seed++ {
		out = append(out, GenSSA("micro", seed, Shape{
			Params: 4, Segments: 5, MaxDepth: 3, StraightLen: 6,
			LoopProb: 0.4, BranchProb: 0.3, Carried: 3, LongLived: 16,
		}))
	}
	return out
}

func BenchmarkMicroLiveness(b *testing.B) {
	fs := microFuncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			liveness.Compute(f)
		}
	}
}

func BenchmarkMicroIFGBuild(b *testing.B) {
	fs := microFuncs()
	infos := make([]*liveness.Info, len(fs))
	for i, f := range fs {
		infos[i] = liveness.Compute(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			ifg.FromLiveness(info)
		}
	}
}

// microWeightedGraph is the interval graph of microIntervalEdges with
// deterministic spill weights.
func microWeightedGraph(n int) *graph.Weighted {
	g := graph.New(n)
	for _, e := range microIntervalEdges(n) {
		g.AddEdge(e[0], e[1])
	}
	g.Freeze()
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(1000))
	}
	return graph.NewWeighted(g, w)
}

func BenchmarkFrankMWSS(b *testing.B) {
	g := microWeightedGraph(2000)
	order := g.PerfectEliminationOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stable.MaxWeightChordal(g.Graph, order, g.Weight)
	}
}

func BenchmarkMaximalCliques(b *testing.B) {
	g := microWeightedGraph(2000)
	order := g.PerfectEliminationOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaximalCliques(order)
	}
}

// allocProblem is one strict-SSA function's allocation problem at R = r,
// with the intervals the linear-scan allocators need.
func allocProblem(r int) *alloc.Problem {
	f := GenSSA("bench", 77, Shape{
		Params: 4, Segments: 6, MaxDepth: 3, StraightLen: 6,
		LoopProb: 0.4, BranchProb: 0.3, Carried: 3, LongLived: 24,
	})
	info := liveness.Compute(f)
	build := ifg.FromLiveness(info)
	costs := spillcost.Costs(f, spillcost.DefaultModel)
	p := alloc.BuildProblem(alloc.Spec{Build: build, Costs: costs, R: r})
	p.Intervals = linearscan.BuildIntervals(info, build)
	return p
}

func benchAlloc(b *testing.B, newAlloc func() alloc.Allocator) {
	p := allocProblem(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newAlloc().Allocate(p)
	}
}

func BenchmarkAllocNL(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return layered.NL() })
}

func BenchmarkAllocBFPL(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return layered.BFPL() })
}

func BenchmarkAllocGC(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return chaitin.New() })
}

func BenchmarkAllocLinearScan(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return linearscan.BLS() })
}

func BenchmarkAllocLH(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return layered.NewLH() })
}

func BenchmarkAllocOptimal(b *testing.B) {
	benchAlloc(b, func() alloc.Allocator { return optimal.New() })
}
