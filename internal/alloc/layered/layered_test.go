package layered

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/stable"
)

// The paper's Figure 4/5/6 graph: a..g = 0..6, weights a=1 f=6 d=5 e=2 b=2
// g=1 c=2.
const (
	va = iota
	vb
	vc
	vd
	ve
	vf
	vg
)

func paperGraph() *graph.Weighted {
	g := graph.New(7)
	for _, e := range [][2]int{
		{va, vd}, {va, vf}, {vd, vf}, {ve, vf}, {vd, ve},
		{vc, vd}, {vc, ve}, {ve, vg}, {vc, vg}, {vb, vc}, {vb, vg},
	} {
		g.AddEdge(e[0], e[1])
	}
	w := make([]float64, 7)
	w[va], w[vb], w[vc], w[vd], w[ve], w[vf], w[vg] = 1, 2, 2, 5, 2, 6, 1
	return graph.NewWeighted(g, w)
}

func spillCostOf(p *alloc.Problem, res *alloc.Result) float64 { return res.SpillCost(p) }

// TestBiasImprovesLayered reproduces the paper's Figure 6: with two
// registers and step one, the unbiased allocator may pick the {b,f} maximum
// weighted stable set and end with spill cost 5 on this reconstruction,
// while the biased allocator prefers {c,f} (same weight, more interference
// removed) and reaches spill cost 4.
func TestBiasImprovesLayered(t *testing.T) {
	p := alloc.NewGraphProblem(paperGraph(), 2, nil)

	nl := NL().Allocate(p)
	if err := p.Validate(nl); err != nil {
		t.Fatal(err)
	}
	bl := BL().Allocate(p)
	if err := p.Validate(bl); err != nil {
		t.Fatal(err)
	}
	nlCost, blCost := spillCostOf(p, nl), spillCostOf(p, bl)
	if blCost >= nlCost {
		t.Fatalf("bias did not help: NL=%g BL=%g", nlCost, blCost)
	}
	// The biased first layer is {c, f}: both allocated.
	if !bl.Allocated[vc] || !bl.Allocated[vf] {
		t.Fatalf("biased allocation missing c/f: %v", bl.AllocatedList())
	}
	// Biased second layer {b, d}: total spill {a, e, g} = 4.
	if blCost != 4 {
		t.Fatalf("BL spill cost = %g, want 4", blCost)
	}
}

// fig7Graph is the paper's Figure 7 topology: maximal cliques {a,d,f},
// {b,c,e}, {c,d,e}, {d,e,f}. The figure's weight labels are ambiguous in the
// source scan, so we use weights a=5 b=4 c=1 d=3 e=1 f=1 which exhibit the
// same phenomenon: with R=2, plain layered allocation stops at {a,b,d}
// after two layers, yet c (and alternatively e) can still be allocated —
// only the fixed-point iteration finds it.
func fig7Graph() *graph.Weighted {
	const (
		a = iota
		b
		c
		d
		e
		f
	)
	g := graph.New(6)
	for _, edge := range [][2]int{
		{a, d}, {a, f}, {d, f}, // clique adf
		{b, c}, {b, e}, {c, e}, // clique bce
		{c, d}, {d, e}, // clique cde (with c-e above)
		{e, f}, // clique def (with d-e, d-f above)
	} {
		g.AddEdge(edge[0], edge[1])
	}
	return graph.NewWeighted(g, []float64{5, 4, 1, 3, 1, 1})
}

func TestFixedPointImprovesLayered(t *testing.T) {
	p := alloc.NewGraphProblem(fig7Graph(), 2, nil)

	nl := NL().Allocate(p)
	if err := p.Validate(nl); err != nil {
		t.Fatal(err)
	}
	got := nl.AllocatedList()
	want := []int{0, 1, 3} // a, b, d
	if !equalInts(got, want) {
		t.Fatalf("NL allocated %v, want %v", got, want)
	}

	fpl := FPL().Allocate(p)
	if err := p.Validate(fpl); err != nil {
		t.Fatal(err)
	}
	if len(fpl.AllocatedList()) != 4 {
		t.Fatalf("FPL allocated %v, want 4 vertices", fpl.AllocatedList())
	}
	if spillCostOf(p, fpl) >= spillCostOf(p, nl) {
		t.Fatalf("fixed point did not improve: NL=%g FPL=%g",
			spillCostOf(p, nl), spillCostOf(p, fpl))
	}
	// f is blocked (clique {a,d,f} already holds a and d).
	if fpl.Allocated[5] {
		t.Fatal("FPL allocated f, violating clique adf")
	}
}

func TestLayeredRequiresChordal(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	w := graph.NewWeighted(g, []float64{1, 1, 1, 1})
	p := alloc.NewGraphProblem(w, 2, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	defer func() {
		if recover() == nil {
			t.Fatal("layered on non-chordal problem did not panic")
		}
	}()
	NL().Allocate(p)
}

func TestLayeredRZero(t *testing.T) {
	p := alloc.NewGraphProblem(paperGraph(), 0, nil)
	res := NL().Allocate(p)
	if len(res.AllocatedList()) != 0 {
		t.Fatalf("R=0 allocated %v", res.AllocatedList())
	}
}

func TestLayeredHighRAllocatesEverything(t *testing.T) {
	p := alloc.NewGraphProblem(paperGraph(), 7, nil)
	for _, a := range []*Allocator{NL(), BL(), FPL(), BFPL()} {
		res := a.Allocate(p)
		if len(res.AllocatedList()) != 7 {
			t.Fatalf("%s with R=7 allocated %v", a.Name(), res.AllocatedList())
		}
	}
}

func TestAllocatorNames(t *testing.T) {
	if NL().Name() != "NL" || BL().Name() != "BL" ||
		FPL().Name() != "FPL" || BFPL().Name() != "BFPL" || NewLH().Name() != "LH" {
		t.Fatal("allocator names wrong")
	}
}

func randomChordalProblem(r *rand.Rand, n, regs int) *alloc.Problem {
	type iv struct{ lo, hi int }
	ivs := make([]iv, n)
	for i := range ivs {
		a, b := r.Intn(3*n), r.Intn(3*n)
		if a > b {
			a, b = b, a
		}
		ivs[i] = iv{a, b}
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ivs[i].lo <= ivs[j].hi && ivs[j].lo <= ivs[i].hi {
				g.AddEdge(i, j)
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + r.Intn(100))
	}
	return alloc.NewGraphProblem(graph.NewWeighted(g, w), regs, nil)
}

// TestPropertyLayeredValid: all four variants produce valid allocations on
// random chordal problems at every register count.
func TestPropertyLayeredValid(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomChordalProblem(r, 2+r.Intn(30), 1+r.Intn(6))
		for _, a := range []*Allocator{NL(), BL(), FPL(), BFPL()} {
			if err := p.Validate(a.Allocate(p)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFixedPointNoWorse: FPL never spills more than NL, BFPL never
// more than BL (the fixed point only ever adds allocations).
func TestPropertyFixedPointNoWorse(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomChordalProblem(r, 2+r.Intn(30), 1+r.Intn(6))
		if spillCostOf(p, FPL().Allocate(p)) > spillCostOf(p, NL().Allocate(p)) {
			return false
		}
		return spillCostOf(p, BFPL().Allocate(p)) <= spillCostOf(p, BL().Allocate(p))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveUpdateMatchesIncremental checks Algorithm 4's incremental
// occupancy counters against a from-scratch recount: after every FPL and
// BFPL run, each clique's counter equals its number of allocated members,
// and the clique is marked saturated exactly when that count reaches R.
func TestNaiveUpdateMatchesIncremental(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomChordalProblem(r, 2+r.Intn(25), 1+r.Intn(5))
		for _, a := range []*Allocator{FPL(), BFPL()} {
			res := a.Allocate(p)
			for ci, ls := range p.LiveSets {
				count := 0
				for _, v := range ls {
					if res.Allocated[v] {
						count++
					}
				}
				if a.scr.allocatedPerClique[ci] != count || a.scr.saturated[ci] != (count >= p.R) {
					t.Logf("seed %d %s clique %d: counter %d saturated %v, recount %d (R=%d)",
						seed, a.Name(), ci, a.scr.allocatedPerClique[ci], a.scr.saturated[ci], count, p.R)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFirstLayerIsMWSS: with R=1 and no bias, layered allocation is
// exactly the maximum weighted stable set (a single Frank layer).
func TestPropertyFirstLayerMaximal(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomChordalProblem(r, 2+r.Intn(25), 1)
		res := NL().Allocate(p)
		set := res.AllocatedList()
		if !p.Graph().IsStableSet(set) {
			return false
		}
		// Maximality: no vertex can be added.
		for v := 0; v < p.N(); v++ {
			if res.Allocated[v] {
				continue
			}
			ok := true
			for _, u := range set {
				if p.Graph().HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLHStructuralGuarantee: the LH allocation is the union of at most R
// greedy clusters, each a stable set — so it is assignable with R registers
// by construction (one register per cluster).
func TestLHStructuralGuarantee(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + r.Intn(100))
		}
		regs := 1 + r.Intn(5)
		p := alloc.BuildProblem(alloc.Spec{Graph: graph.NewWeighted(g, w), R: regs})
		res := NewLH().Allocate(p)
		// Recompute the clusters LH used; its allocation must be exactly
		// the union of the R heaviest (ties broken stably).
		clusters := stable.ClusterVertices(g, w)
		sort.SliceStable(clusters, func(i, j int) bool {
			return stable.SetWeight(clusters[i], w) > stable.SetWeight(clusters[j], w)
		})
		if len(clusters) > regs {
			clusters = clusters[:regs]
		}
		want := make([]bool, n)
		for _, c := range clusters {
			if !g.IsStableSet(c) {
				return false
			}
			for _, v := range c {
				want[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if res.Allocated[v] != want[v] {
				return false
			}
		}
		// And every clique constraint of the graph keeps ≤ regs allocated:
		// check all edges' endpoints cannot both be... (each cluster is
		// stable, so any clique meets each cluster at most once).
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLHDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := randomChordalProblem(r, 30, 3)
	first := NewLH().Allocate(p).AllocatedList()
	for i := 0; i < 5; i++ {
		if !equalInts(NewLH().Allocate(p).AllocatedList(), first) {
			t.Fatal("LH not deterministic")
		}
	}
}

func equalInts(a, b []int) bool {
	sort.Ints(a)
	sort.Ints(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestZeroWeightValuesAllocatedWithSlack is the regression test for the
// zero-cost-value inconsistency: Frank's algorithm never selects zero-weight
// vertices, so NL/FPL used to spill every cost-0 value even with registers
// idle, while BL kept the ones whose bias (deg > 0) made the weight
// positive. All four variants must now keep a zero-weight vertex whenever a
// layer has room for it.
func TestZeroWeightValuesAllocatedWithSlack(t *testing.T) {
	// Path a — b — c, weights 5, 0, 5. With R=2, {a, c} is the first layer
	// and b (weight 0) fits in the second.
	build := func() *alloc.Problem {
		g := graph.New(3)
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		return alloc.NewGraphProblem(graph.NewWeighted(g, []float64{5, 0, 5}), 2, nil)
	}
	for _, a := range []*Allocator{NL(), BL(), FPL(), BFPL()} {
		p := build()
		res := a.Allocate(p)
		if err := p.Validate(res); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for v := 0; v < 3; v++ {
			if !res.Allocated[v] {
				t.Errorf("%s: vertex %d spilled with registers idle (weight %g)",
					a.Name(), v, p.Weight[v])
			}
		}
	}
}

// TestZeroWeightParityNLvsBL: an *isolated* zero-weight vertex gets no help
// from the degree bias, so before the fix NL and BL disagreed even on it.
// Both must keep it, and a saturated neighbourhood must still force spills
// of zero-weight vertices that genuinely do not fit.
func TestZeroWeightParityNLvsBL(t *testing.T) {
	// Triangle x-y-z (weights 3,3,3) plus an isolated vertex d of weight 0.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	w := []float64{3, 3, 3, 0}
	for _, a := range []*Allocator{NL(), BL()} {
		p := alloc.NewGraphProblem(graph.NewWeighted(g.Clone(), append([]float64(nil), w...)), 2, nil)
		res := a.Allocate(p)
		if err := p.Validate(res); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if !res.Allocated[3] {
			t.Errorf("%s: isolated zero-weight vertex spilled", a.Name())
		}
		// R=2 on a triangle: exactly one of x,y,z spills regardless.
		spilled := 0
		for v := 0; v < 3; v++ {
			if !res.Allocated[v] {
				spilled++
			}
		}
		if spilled != 1 {
			t.Errorf("%s: %d of the triangle spilled, want 1", a.Name(), spilled)
		}
	}
}

// TestAllZeroWeightGraph: when *every* candidate is zero-weight (Frank's
// algorithm returns an empty set), the extension alone must fill the
// layers.
func TestAllZeroWeightGraph(t *testing.T) {
	// Path 0-1-2-3 (chordal), all weights 0, R=2: 2-colourable — all fit.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	p := alloc.NewGraphProblem(graph.NewWeighted(g, []float64{0, 0, 0, 0}), 2, nil)
	for _, a := range []*Allocator{NL(), BFPL()} {
		res := a.Allocate(p)
		if err := p.Validate(res); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for v := 0; v < 4; v++ {
			if !res.Allocated[v] {
				t.Errorf("%s: zero-weight vertex %d spilled in a 2-colourable graph", a.Name(), v)
			}
		}
	}
}
