// Package layered implements the paper's contribution: layered register
// allocation. Instead of incrementally spilling variables, it incrementally
// *allocates* them, one optimal single-register layer at a time. On a
// chordal (strict SSA) interference graph each layer is a maximum weighted
// stable set, computed exactly in O(V+E) by Frank's algorithm, so the whole
// allocator runs in O(R·(V+E)).
//
// Four variants are provided, matching the paper's §6 nomenclature:
//
//	NL    plain layered allocation (Algorithm 2)
//	BL    layered with biased weights (§4.1)
//	FPL   layered iterated to a fixed point with clique bookkeeping
//	      (Algorithms 3 and 4)
//	BFPL  both improvements
//
// For general (non-chordal) graphs, the LH allocator (Algorithms 5 and 6)
// replaces the exact stable sets with greedy weight-ordered clusters.
//
// The allocator is representation-polymorphic: on fast-path problems
// (Problem.Cliques set) every phase — Frank's stable sets, degree bias,
// zero-weight extension, clique bookkeeping — runs directly on the clique
// structure with no interference graph in sight; on graph problems the
// classical edge-based implementation is used. Both produce identical
// allocations for the same instance (pinned by the core fast-path
// differential test).
//
// An Allocator reuses its internal scratch across Allocate calls and is
// therefore not safe for concurrent use; give each worker its own instance.
package layered

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/cliques"
	"repro/internal/raerr"
	"repro/internal/stable"
)

// Option configures a layered allocator.
type Option struct {
	// Bias replaces each weight w(v) by w(v)·|V| + deg(v), preferring —
	// among stable sets of (nearly) equal cost — the one that removes the
	// most interferences among the still-unallocated variables.
	Bias bool
	// DynamicBias recomputes deg(v) per layer over the remaining
	// candidates instead of using the static degree. The paper's formula
	// is static; the dynamic variant matches the stated motivation
	// ("interferences in the graph on non-allocated variables") and is
	// measured by the bias ablation bench.
	DynamicBias bool
	// FixedPoint continues allocating layers past the first R, with
	// per-clique occupancy bookkeeping (Algorithm 4) pruning the variables
	// that can no longer fit, until no variable can be added.
	FixedPoint bool
	// MaxFixpointRounds caps the number of extra layers after the first R
	// (0 = iterate to the fixed point). The fixpoint-depth ablation
	// compares a single extra pass against full iteration.
	MaxFixpointRounds int
	// NaiveUpdate recomputes the per-clique occupancy from scratch on
	// every Update call instead of maintaining incremental counters; the
	// result is identical, only slower. Used by the bookkeeping ablation.
	NaiveUpdate bool
}

// Allocator is a layered-optimal allocator for chordal problems.
type Allocator struct {
	opt  Option
	name string
	scr  scratch
}

// NL returns the plain layered-optimal allocator.
func NL() *Allocator { return &Allocator{name: "NL"} }

// BL returns the biased layered allocator.
func BL() *Allocator { return &Allocator{opt: Option{Bias: true}, name: "BL"} }

// FPL returns the fixed-point layered allocator.
func FPL() *Allocator { return &Allocator{opt: Option{FixedPoint: true}, name: "FPL"} }

// BFPL returns the biased fixed-point layered allocator.
func BFPL() *Allocator {
	return &Allocator{opt: Option{Bias: true, FixedPoint: true}, name: "BFPL"}
}

// Custom returns an allocator with explicit options, named name.
func Custom(name string, opt Option) *Allocator {
	return &Allocator{opt: opt, name: name}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Allocate implements alloc.Allocator. The problem must be chordal (PEO
// valid); the harness only routes chordal instances here.
func (a *Allocator) Allocate(p *Problem) *alloc.Result {
	return a.AllocateProblem(p)
}

// CheckProblem implements alloc.ProblemChecker: layered allocation is
// defined on chordal problems only. A non-chordal instance routed here is
// either a non-SSA function or a mis-wired custom pipeline.
func (a *Allocator) CheckProblem(p *Problem) error {
	if !p.Chordal {
		return fmt.Errorf("%w: layered allocator %s requires a chordal problem (use LH for general graphs)",
			raerr.ErrNotSSA, a.name)
	}
	return nil
}

// Problem aliases alloc.Problem for readability of this package's API.
type Problem = alloc.Problem

// AllocateProblem runs the layered allocation. When the problem carries a
// budget meter, each layer charges the vertex count (Frank's algorithm is
// O(V + Σ|live sets|) per layer) before it runs; on a trip the allocation
// stops at the layer boundary and the partial result is returned — every
// prefix of layers is a valid allocation (dropping layers only spills
// more), so degradation here costs quality, never correctness.
func (a *Allocator) AllocateProblem(p *Problem) *alloc.Result {
	if !p.Chordal {
		panic("layered: " + a.name + " requires a chordal problem (use LH for general graphs)")
	}
	n := p.N()
	st := a.newState(p)

	// Phase 1 (Algorithm 2): at most R optimal single-register layers.
	for count := 0; count < p.R && st.remaining > 0; count++ {
		if !p.Meter.Charge(n) {
			break // budget tripped: the layers so far stand
		}
		layer := st.layer(a.opt)
		if len(layer) == 0 {
			break
		}
		st.allocate(layer)
	}

	if a.opt.FixedPoint && !p.Meter.Exceeded() {
		// Phase 2 (Algorithm 3 lines 8–13): account for the R first layers,
		// prune saturated cliques, then keep allocating until fixpoint.
		st.update(st.scr.allocatedList, a.opt)
		rounds := 0
		for st.remaining > 0 {
			if a.opt.MaxFixpointRounds > 0 && rounds >= a.opt.MaxFixpointRounds {
				break
			}
			if !p.Meter.Charge(n) {
				break
			}
			layer := st.layer(a.opt)
			if len(layer) == 0 {
				break
			}
			st.allocate(layer)
			st.update(layer, a.opt)
			rounds++
		}
	}

	return alloc.NewResult(n, st.scr.allocatedList, a.name)
}

// scratch is the reusable backing memory of one Allocator.
type scratch struct {
	candidate          []bool
	allocated          []bool
	allocatedList      []int
	cliquesOf          [][]int // graph path only; clique path uses the CSR index
	allocatedPerClique []int
	saturated          []bool
	w                  []float64
	inLayer            []bool
	layerCnt           []int32 // clique path: per-clique in-layer counts
	stamp              []int32 // clique path: vertex stamps for dynamic bias
	stampGen           int32
	frank              cliques.FrankScratch
	st                 state
}

// state carries the candidate set and clique occupancy across layers.
type state struct {
	p         *Problem
	cs        *cliques.Structure // nil on the graph path
	scr       *scratch
	remaining int
	staticDeg []int
}

func (a *Allocator) newState(p *Problem) *state {
	n := p.N()
	scr := &a.scr
	scr.candidate = resizeBools(scr.candidate, n, true)
	scr.allocated = resizeBools(scr.allocated, n, false)
	scr.allocatedList = scr.allocatedList[:0]
	scr.allocatedPerClique = resizeInts(scr.allocatedPerClique, len(p.LiveSets), 0)
	scr.saturated = resizeBools(scr.saturated, len(p.LiveSets), false)
	st := &scr.st
	*st = state{p: p, cs: p.Cliques, scr: scr, remaining: n}
	if st.cs != nil {
		st.staticDeg = st.cs.Degrees()
	} else {
		g := p.Graph()
		if cap(scr.cliquesOf) < n {
			scr.cliquesOf = make([][]int, n)
		}
		scr.cliquesOf = scr.cliquesOf[:n]
		for v := range scr.cliquesOf {
			scr.cliquesOf[v] = scr.cliquesOf[v][:0]
		}
		for ci, ls := range p.LiveSets {
			for _, v := range ls {
				scr.cliquesOf[v] = append(scr.cliquesOf[v], ci)
			}
		}
		deg := resizeInts(nil, n, 0)
		for v := 0; v < n; v++ {
			deg[v] = g.Degree(v)
		}
		st.staticDeg = deg
	}
	return st
}

// layer computes one optimal single-register allocation over the current
// candidates: a maximum weighted stable set of the induced subgraph,
// obtained by zeroing non-candidate weights (zero-weight vertices are never
// selected by Frank's algorithm and charge nothing, so this equals running
// it on the induced subgraph).
//
// Frank's "w' > 0" test also skips *candidates* whose weight is zero (a
// dead-cheap value, or any cost-0 variable under a stores-are-free model),
// which would leave them spilled — and gaining pointless spill code in the
// rewrite — even with registers sitting idle. The layer is therefore
// extended with every zero-weight candidate that fits: the additions carry
// zero weight, so the set remains a maximum weighted stable set, uniformly
// across NL, BL, FPL and BFPL.
func (st *state) layer(opt Option) []int {
	p := st.p
	n := p.N()
	scr := st.scr
	scr.w = resizeFloats(scr.w, n, 0)
	w := scr.w
	candidate := scr.candidate
	scale := float64(n)
	for v := 0; v < n; v++ {
		if !candidate[v] {
			continue
		}
		if opt.Bias {
			deg := st.staticDeg[v]
			if opt.DynamicBias {
				deg = st.dynamicDegree(v)
			}
			w[v] = p.Weight[v]*scale + float64(deg)
		} else {
			w[v] = p.Weight[v]
		}
	}
	var layer []int
	if st.cs != nil {
		layer = st.cs.MaxWeightStable(w, &scr.frank)
	} else {
		layer = stable.MaxWeightChordal(p.Graph().Graph, p.PEO, w)
	}
	return st.extendZeroWeight(layer, w)
}

// dynamicDegree counts v's still-candidate neighbours for the DynamicBias
// ablation.
func (st *state) dynamicDegree(v int) int {
	scr := st.scr
	if st.cs == nil {
		deg := 0
		st.p.Graph().VisitNeighbors(v, func(u int) {
			if scr.candidate[u] {
				deg++
			}
		})
		return deg
	}
	// Neighbours are the union of v's live sets; dedup with a stamp array.
	if cap(scr.stamp) < st.cs.N {
		scr.stamp = make([]int32, st.cs.N)
		scr.stampGen = 0
	}
	stamp := scr.stamp[:st.cs.N]
	scr.stampGen++
	gen := scr.stampGen
	deg := 0
	for _, ci := range st.cs.CliquesOf(v) {
		for _, u := range st.cs.Sets[ci] {
			if u == v || stamp[u] == gen {
				continue
			}
			stamp[u] = gen
			if scr.candidate[u] {
				deg++
			}
		}
	}
	return deg
}

// extendZeroWeight greedily adds zero-weight candidates (ascending vertex
// order, for determinism) that are not adjacent to the layer or to each
// other. With slack in the graph this allocates cost-0 values instead of
// spilling them; the layer's total weight — and hence its optimality — is
// unchanged.
func (st *state) extendZeroWeight(layer []int, w []float64) []int {
	p := st.p
	n := p.N()
	scr := st.scr
	scr.inLayer = resizeBools(scr.inLayer, n, false)
	inLayer := scr.inLayer
	for _, v := range layer {
		inLayer[v] = true
	}
	if st.cs != nil {
		// Adjacency to the layer ⇔ sharing a live set with a layer member:
		// track per-clique in-layer counts instead of scanning edges.
		scr.layerCnt = resizeInt32s(scr.layerCnt, len(st.cs.Sets), 0)
		cnt := scr.layerCnt
		for _, v := range layer {
			for _, ci := range st.cs.CliquesOf(v) {
				cnt[ci]++
			}
		}
		for v := 0; v < n; v++ {
			if !scr.candidate[v] || inLayer[v] || w[v] != 0 {
				continue
			}
			free := true
			for _, ci := range st.cs.CliquesOf(v) {
				if cnt[ci] > 0 {
					free = false
					break
				}
			}
			if free {
				layer = append(layer, v)
				inLayer[v] = true
				for _, ci := range st.cs.CliquesOf(v) {
					cnt[ci]++
				}
			}
		}
		for _, v := range layer {
			for _, ci := range st.cs.CliquesOf(v) {
				cnt[ci] = 0
			}
		}
	} else {
		g := p.Graph()
		for v := 0; v < n; v++ {
			if !scr.candidate[v] || inLayer[v] || w[v] != 0 {
				continue
			}
			free := true
			g.VisitNeighbors(v, func(u int) {
				if inLayer[u] {
					free = false
				}
			})
			if free {
				layer = append(layer, v)
				inLayer[v] = true
			}
		}
	}
	for _, v := range layer {
		inLayer[v] = false
	}
	return layer
}

func (st *state) allocate(layer []int) {
	scr := st.scr
	for _, v := range layer {
		if !scr.candidate[v] {
			continue
		}
		scr.candidate[v] = false
		st.remaining--
		scr.allocated[v] = true
		scr.allocatedList = append(scr.allocatedList, v)
	}
}

// update is Algorithm 4: bump the occupancy of every clique containing a
// freshly allocated vertex; saturated cliques (occupancy ≥ R) remove all
// their vertices from the candidate pool.
func (st *state) update(fresh []int, opt Option) {
	if opt.NaiveUpdate {
		st.naiveUpdate()
		return
	}
	scr := st.scr
	bump := func(ci int) {
		if scr.saturated[ci] {
			return
		}
		scr.allocatedPerClique[ci]++
		if scr.allocatedPerClique[ci] >= st.p.R {
			scr.saturated[ci] = true
			for _, u := range st.p.LiveSets[ci] {
				if scr.candidate[u] {
					scr.candidate[u] = false
					st.remaining--
				}
			}
		}
	}
	if st.cs != nil {
		for _, v := range fresh {
			for _, ci := range st.cs.CliquesOf(v) {
				bump(int(ci))
			}
		}
	} else {
		for _, v := range fresh {
			for _, ci := range scr.cliquesOf[v] {
				bump(ci)
			}
		}
	}
}

// naiveUpdate recomputes every clique's occupancy from the allocated flags
// (the ablation baseline for Algorithm 4's incremental counters).
func (st *state) naiveUpdate() {
	scr := st.scr
	for ci, ls := range st.p.LiveSets {
		count := 0
		for _, v := range ls {
			if scr.allocated[v] {
				count++
			}
		}
		scr.allocatedPerClique[ci] = count
		if count >= st.p.R && !scr.saturated[ci] {
			scr.saturated[ci] = true
			for _, u := range ls {
				if scr.candidate[u] {
					scr.candidate[u] = false
					st.remaining--
				}
			}
		}
	}
}

func resizeBools(s []bool, n int, fill bool) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

func resizeInts(s []int, n, fill int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

func resizeInt32s(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

func resizeFloats(s []float64, n int, fill float64) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

// LH is the layered-heuristic allocator for general interference graphs
// (paper Algorithms 5 and 6): cluster the vertices into greedy stable sets
// by decreasing weight, then allocate the R heaviest clusters. Like the
// chordal allocators it reuses its clustering memory across calls.
type LH struct {
	clusters stable.ClusterScratch
}

// NewLH returns the layered heuristic.
func NewLH() *LH { return &LH{} }

// Name implements alloc.Allocator.
func (*LH) Name() string { return "LH" }

// Allocate implements alloc.Allocator.
func (l *LH) Allocate(p *Problem) *alloc.Result {
	g := p.Graph()
	clusters := l.clusters.Cluster(g.Graph, g.Weight)
	// Decreasing total weight; the stable sort keeps construction order
	// among equal weights.
	slices.SortStableFunc(clusters, func(a, b []int) int {
		wa, wb := stable.SetWeight(a, g.Weight), stable.SetWeight(b, g.Weight)
		switch {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return 0
	})
	if len(clusters) > p.R {
		clusters = clusters[:p.R]
	}
	res := &alloc.Result{Allocated: make([]bool, p.N()), Allocator: "LH"}
	for _, c := range clusters {
		for _, v := range c {
			res.Allocated[v] = true
		}
	}
	return res
}
