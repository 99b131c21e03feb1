// Package alloc defines the register-allocation problem the paper studies —
// spill-everywhere allocation in a decoupled framework — and the common
// types every allocator implements.
//
// A Problem carries the register-pressure constraints (live sets, which are
// cliques of the interference graph), per-vertex spill costs, and a register
// count R. An allocation is a subset of variables kept in registers; it is
// valid when no live set keeps more than R variables, which for chordal
// (strict SSA) graphs is exactly R-colourability. The allocation cost of a
// solution is the total spill cost of the variables not kept.
//
// Two interference representations back a Problem. The fast path carries a
// cliques.Structure — live sets, def-point sets and a dominance-derived
// elimination order, straight from liveness, with no explicit graph — which
// is everything the layered and linear-scan allocators need. Allocators that
// genuinely require edge adjacency (Chaitin-style colouring, the exact
// solver, the general-graph heuristic) call Graph, which lazily materializes
// the classical weighted graph from whichever representation is present.
package alloc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/cliques"
	"repro/internal/graph"
	"repro/internal/ifg"
	"repro/internal/ir"
)

// Problem is one spill-everywhere allocation instance.
type Problem struct {
	// R is the number of available registers.
	R int
	// Weight is the per-vertex spill cost.
	Weight []float64
	// LiveSets are the register-pressure constraints: sorted vertex sets,
	// each a clique of the interference graph, of which at most R members
	// may be allocated. On the graph path of a chordal instance these are
	// the maximal cliques; on the clique fast path they are the distinct
	// program-point live sets (a superset of the maximal cliques, yielding
	// identical constraint semantics).
	LiveSets [][]int
	// Chordal records whether the interference graph is chordal; PEO is a
	// perfect elimination order when it is (and a best-effort MCS order
	// otherwise).
	Chordal bool
	PEO     []int
	// Name optionally identifies the instance (benchmark name) in reports.
	Name string
	// Intervals optionally holds, per vertex, the [start, end] program
	// point range of its live interval on a linearized layout. Linear-scan
	// allocators require it; graph-only instances leave it nil.
	Intervals [][2]int
	// Cliques is the IFG-free structure of the SSA fast path (nil on the
	// graph path). When set, layered allocation runs natively on it.
	Cliques *cliques.Structure
	// Constraints, when non-nil, records the machine description the
	// instance was built under. It changes Validate's pressure semantics:
	// live sets are checked per register class against each class's
	// capacity instead of against the single R (this is the validation the
	// merged result of the per-class decomposition must satisfy). Requires
	// Cliques (class membership is read off the function).
	Constraints *arch.Constraints
	// Meter, when non-nil, is the resource budget of the run. Allocators
	// charge it cooperatively at coarse granularity (a layer, an interval)
	// and stop early — returning a valid partial result with more values
	// spilled — when it trips. A nil Meter never trips; the field is
	// scratch state of one run and is cleared before results are cached.
	Meter *budget.Meter

	g *graph.Weighted // explicit graph; lazily built from Cliques when nil
}

// Spec describes one allocation problem for BuildProblem, the single
// builder behind every pipeline path. Exactly one interference
// representation must be set — Cliques (the IFG-free SSA fast path), Build
// (the legacy explicit-graph path), or Graph (a bare weighted graph with
// caller-derived structure) — so the fast/legacy choice is a field, not an
// API fork.
type Spec struct {
	// Cliques is the IFG-free structure derived straight from liveness.
	Cliques *cliques.Structure
	// Build is the explicit interference-graph build.
	Build *ifg.Build
	// Graph is a bare weighted graph whose structure the caller already
	// derived; LiveSets, Chordal and PEO are taken verbatim (sub-problem
	// builders and tests know what they built). Costs is ignored — the
	// weights come from the graph.
	Graph *graph.Weighted
	// Dom optionally supplies the function's dominance tree on the Build
	// path (the pipeline driver computed one during validation); nil
	// computes it on demand for SSA inputs.
	Dom *ir.Dominance
	// Costs is the per-value spill cost (Cliques and Build paths).
	Costs []float64
	// R is the register count.
	R int
	// Constraints optionally carries the machine description of a
	// constrained run (Cliques path only); see Problem.Constraints.
	Constraints *arch.Constraints
	// LiveSets/Chordal/PEO carry the verbatim structure of the Graph path.
	LiveSets [][]int
	Chordal  bool
	PEO      []int
}

// BuildProblem assembles a Problem from whichever interference
// representation the spec carries.
//
// On the Cliques path the instance is chordal by construction (Derive only
// succeeds on strict SSA with the dominance elimination order intact) and
// no explicit graph is materialized. On the Build path, strict-SSA
// functions get the canonical dominance elimination order (reverse
// definition order along a dominance-tree preorder) — the same order the
// clique fast path derives without the graph — so the two paths make
// identical tie-break decisions; non-SSA (or structurally unusual) inputs
// keep the maximum-cardinality-search order.
func BuildProblem(s Spec) *Problem {
	return BuildProblemInto(new(Problem), s)
}

// BuildProblemInto is BuildProblem overwriting dst, which it returns: every
// field is replaced, the lazily materialized graph and the Meter included,
// so nothing of dst's previous problem survives. On the Cliques and Build
// paths the weights are fresh memory on every call — they never change
// after the build, so a decision-level copy of the problem may keep them
// past dst's next build; everything else references the structures the
// spec carries.
func BuildProblemInto(dst *Problem, s Spec) *Problem {
	switch {
	case s.Cliques != nil:
		cs := s.Cliques
		w := make([]float64, cs.N)
		for v := range w {
			w[v] = s.Costs[cs.ValueOf[v]]
		}
		*dst = Problem{
			R:           s.R,
			Weight:      w,
			LiveSets:    cs.Sets,
			Chordal:     true,
			PEO:         cs.PEO,
			Name:        cs.F.Name,
			Cliques:     cs,
			Constraints: s.Constraints,
		}
		return dst
	case s.Build != nil:
		b := s.Build
		w := make([]float64, b.Graph.N())
		for v := range w {
			w[v] = s.Costs[b.ValueOf[v]]
		}
		*dst = Problem{
			g:      graph.NewWeighted(b.Graph, w),
			Weight: w,
			R:      s.R,
			Name:   b.F.Name,
		}
		p := dst
		var domPEO []int
		if b.F.SSA {
			dom := s.Dom
			if dom == nil {
				dom = b.F.ComputeDominance()
			}
			if cliques.Applicable(b.F, dom) {
				domPEO = cliques.DominancePEO(b.F, dom, b.VertexOf, b.Graph.N())
			}
		}
		// The clique ↔ live-set correspondence that lets allocators treat
		// graph cliques as register-pressure constraints only holds for
		// strict SSA. A non-SSA program may produce an accidentally chordal
		// graph whose maximal cliques were never simultaneously live; its
		// constraints must stay the program-point live sets.
		if domPEO != nil && b.Graph.IsPerfectEliminationOrder(domPEO) {
			p.PEO, p.Chordal = domPEO, true
		} else {
			p.PEO = b.Graph.PerfectEliminationOrder()
			p.Chordal = b.F.SSA && b.Graph.IsPerfectEliminationOrder(p.PEO)
		}
		if p.Chordal {
			p.LiveSets = b.Graph.MaximalCliques(p.PEO)
		} else {
			p.LiveSets = b.LiveSets
		}
		return p
	case s.Graph != nil:
		*dst = Problem{
			g: s.Graph, Weight: s.Graph.Weight, R: s.R,
			LiveSets: s.LiveSets, Chordal: s.Chordal, PEO: s.PEO,
		}
		return dst
	}
	panic("alloc: BuildProblem spec carries no interference representation")
}

// NewGraphProblem wraps a bare weighted graph as a Problem, deriving the
// pressure constraints from the graph's maximal cliques (requires a chordal
// graph unless liveSets is supplied). Used by tests and the graph-level
// examples.
func NewGraphProblem(g *graph.Weighted, r int, liveSets [][]int) *Problem {
	p := &Problem{g: g, Weight: g.Weight, R: r, LiveSets: liveSets}
	if !g.Frozen() {
		g.Freeze()
	}
	p.PEO = g.PerfectEliminationOrder()
	p.Chordal = g.IsPerfectEliminationOrder(p.PEO)
	if p.LiveSets == nil {
		if !p.Chordal {
			panic("alloc: non-chordal graph problem requires explicit live sets")
		}
		p.LiveSets = g.MaximalCliques(p.PEO)
	}
	return p
}

// N returns the number of vertices.
func (p *Problem) N() int { return len(p.Weight) }

// Graph returns the explicit weighted interference graph, materializing it
// from the clique structure on first use when the problem came through the
// fast path. The result is cached on the problem. A decision-level problem
// (the Problem of a pipeline Outcome: weights, R and chordality, no
// interference representation) has no graph to give, and Graph panics on
// it.
func (p *Problem) Graph() *graph.Weighted {
	if p.g == nil {
		if p.Cliques == nil {
			panic("alloc: Graph on a decision-level problem, which carries no interference graph or clique structure")
		}
		p.g = graph.NewWeighted(p.Cliques.BuildGraph(), p.Weight)
	}
	return p.g
}

// TotalWeight sums the spill costs of all vertices.
func (p *Problem) TotalWeight() float64 {
	total := 0.0
	for _, w := range p.Weight {
		total += w
	}
	return total
}

// Result is the outcome of one allocator run.
type Result struct {
	// Allocated[v] reports whether vertex v stays in a register.
	Allocated []bool
	// Allocator names the algorithm that produced the result.
	Allocator string
}

// NewResult builds a Result from the list of allocated vertices.
func NewResult(n int, allocated []int, name string) *Result {
	res := &Result{Allocated: make([]bool, n), Allocator: name}
	for _, v := range allocated {
		res.Allocated[v] = true
	}
	return res
}

// Spilled returns the sorted list of spilled vertices.
func (r *Result) Spilled() []int {
	var out []int
	for v, a := range r.Allocated {
		if !a {
			out = append(out, v)
		}
	}
	return out
}

// AllocatedList returns the sorted list of allocated vertices.
func (r *Result) AllocatedList() []int {
	var out []int
	for v, a := range r.Allocated {
		if a {
			out = append(out, v)
		}
	}
	return out
}

// SpillCost returns the total cost of the spilled variables under problem p.
func (r *Result) SpillCost(p *Problem) float64 {
	cost := 0.0
	for v, a := range r.Allocated {
		if !a {
			cost += p.Weight[v]
		}
	}
	return cost
}

// Validate checks that the allocation respects every pressure constraint
// (≤ R allocated per live set). On chordal instances this is equivalent to
// the allocated subgraph being R-colourable. A decision-level problem (an
// Outcome's: vertices but no graph or clique structure, on which Graph
// panics) has no constraints to check them against, and Validate refuses
// it: verify.CheckOutcome re-derives the constraints from the function.
func (p *Problem) Validate(r *Result) error {
	if len(r.Allocated) != p.N() {
		return fmt.Errorf("alloc: result covers %d of %d vertices", len(r.Allocated), p.N())
	}
	if p.g == nil && p.Cliques == nil && p.N() > 0 {
		return errDecisionLevel
	}
	if p.Constraints != nil && p.Cliques != nil {
		f := p.Cliques.F
		classOf := make([]ir.Class, f.NumValues)
		for v, c := range f.ValueClass {
			classOf[v] = c
		}
		return p.ValidateClasses(r, classOf)
	}
	for _, ls := range p.LiveSets {
		count := 0
		for _, v := range ls {
			if r.Allocated[v] {
				count++
			}
		}
		if count > p.R {
			return fmt.Errorf("alloc: %s: live set %v keeps %d > R=%d variables",
				r.Allocator, ls, count, p.R)
		}
	}
	return nil
}

var errDecisionLevel = errors.New("alloc: Validate on a decision-level problem, which carries no pressure constraints; check the outcome with verify.CheckOutcome")

// ValidateClasses is Validate for a machine-constrained instance
// (Constraints and Cliques set) whose register classes the caller already
// holds densely: classOf[v] is the class of value v. Pressure is per
// register class — at most cap(c) allocated members of class c per live
// set.
func (p *Problem) ValidateClasses(r *Result, classOf []ir.Class) error {
	if len(r.Allocated) != p.N() {
		return fmt.Errorf("alloc: result covers %d of %d vertices", len(r.Allocated), p.N())
	}
	for _, ls := range p.LiveSets {
		var count [ir.NumClasses]int
		for _, v := range ls {
			if r.Allocated[v] {
				count[classOf[p.Cliques.ValueOf[v]]]++
			}
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			if count[c] > p.Constraints.Cap(c) {
				return fmt.Errorf("alloc: %s: live set %v keeps %d %s values > class capacity %d",
					r.Allocator, ls, count[c], c, p.Constraints.Cap(c))
			}
		}
	}
	return nil
}

// Allocator is a spill-everywhere register allocator.
type Allocator interface {
	Name() string
	// Allocate solves p. Implementations must return a valid Result.
	Allocate(p *Problem) *Result
}

// ProblemChecker is an optional Allocator extension: allocators that have
// structural preconditions beyond "is a Problem" implement it so the
// pipeline can reject a malformed instance with a typed error before
// Allocate runs, instead of panicking from inside the algorithm. The
// built-in allocators keep their internal panics as a defensive backstop,
// but every driver path (core, pipeline, server) consults CheckProblem
// first, so user input can no longer reach them.
type ProblemChecker interface {
	// CheckProblem reports why p cannot be solved by this allocator, or
	// nil when it can.
	CheckProblem(p *Problem) error
}

// MaxPressure returns the largest live-set size, i.e. MaxLive.
func (p *Problem) MaxPressure() int {
	max := 0
	for _, ls := range p.LiveSets {
		if len(ls) > max {
			max = len(ls)
		}
	}
	return max
}

// SortedCopy returns a sorted copy of s (helper shared by allocators).
func SortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}
