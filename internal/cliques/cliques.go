// Package cliques derives the clique structure of a strict-SSA function's
// interference graph straight from liveness information, without ever
// materializing the graph — no edge rows, no MCS, no maximal-clique
// enumeration.
//
// For a strict-SSA function the interference graph is chordal by
// construction and everything the layered allocators need is already present
// in the liveness result:
//
//   - the maximal cliques are (among) the live sets at definition points;
//   - reversing the order in which values are defined along a dominance-tree
//     preorder yields a perfect elimination order (if u and v interfere, one
//     is live at the other's definition, so the later-defined vertex sees
//     all of its earlier-defined neighbours inside one def-point live set —
//     a clique);
//   - Frank's maximum-weighted-stable-set algorithm only ever charges a
//     vertex against its not-yet-processed neighbours, which in this order
//     are exactly the members of its def-point live set.
//
// Structure packages those facts: a vertex numbering identical to the
// ifg.Build one, the deduplicated program-point live sets (which cover every
// interference edge), each vertex's def-point set, and the dominance PEO. It
// supports the full layered allocation natively (MaxWeightStable, Degrees,
// per-clique membership) and can lazily materialize the classical
// graph.Graph for the allocators that genuinely need edges (Chaitin-style
// colouring, the exact solver, the general-graph heuristic).
//
// Derive is defensive: it returns nil whenever a structural assumption does
// not hold (a present value without a definition, a live value that is
// neither defined nor used, unreachable blocks that carry code), and callers
// fall back to the explicit interference-graph path. Applicable is the cheap
// pre-check the pipeline gates on.
package cliques

import (
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Structure is the IFG-free representation of a strict-SSA interference
// problem. All vertex-indexed fields use the same dense numbering an
// ifg.Build would produce (values that occur anywhere, ascending by value
// ID), so results are interchangeable between the two representations.
type Structure struct {
	F *ir.Func
	// N is the vertex count.
	N int
	// VertexOf maps value ID to vertex (-1 when the value never occurs).
	VertexOf []int
	// ValueOf maps vertex to value ID (ascending by construction).
	ValueOf []int
	// Sets holds the distinct program-point live sets translated to vertex
	// IDs, each sorted ascending. Every set is a clique of the interference
	// graph, every interference edge is covered by at least one set, and
	// every maximal clique appears as the def-point set of its last-defined
	// member.
	Sets [][]int
	// DefSetOf[v] indexes the set in Sets recorded at v's definition
	// instant; it always contains v, and it contains every neighbour of v
	// defined before v.
	DefSetOf []int32
	// PEO is the perfect elimination order: vertices in reverse definition
	// order along a dominance-tree preorder (phis at their block boundary
	// in instruction order, then non-phi defs in instruction order).
	PEO []int
	// MaxLive is the peak register pressure (the clique number).
	MaxLive int

	// CSR membership index: the sets containing v are
	// CliqueIdx[CliqueOff[v]:CliqueOff[v+1]].
	CliqueOff []int32
	CliqueIdx []int32

	degrees []int // lazy, see Degrees
	// Memory a structure keeps for reuse by the next DeriveBudget or Project
	// into it: the backing storage of Sets and the last degree table.
	setSlab []int
	degBuf  []int
}

// Reason classifies why the plain IFG-free fast path cannot be used
// directly for a function (ReasonApplicable when it can).
type Reason int

const (
	// ReasonApplicable: the fast path applies as-is.
	ReasonApplicable Reason = iota
	// ReasonNonSSA: the function is not strict SSA, so its interference
	// graph is general.
	ReasonNonSSA
	// ReasonUnreachableCode: an unreachable block carries code, which is
	// exempt from dominance checking and could break the elimination order.
	ReasonUnreachableCode
	// ReasonConstrained: the function carries machine-constraint
	// annotations (classes, pre-colors, clobbers). Pins and clobbers add
	// interference with physical registers that the plain chordal model
	// does not express, so a machine-honoring run must not treat the
	// structure as R fungible registers: the driver decomposes the problem
	// per register class (each induced subproblem is chordal again) or
	// falls back to the legacy path.
	ReasonConstrained
)

func (r Reason) String() string {
	switch r {
	case ReasonApplicable:
		return "applicable"
	case ReasonNonSSA:
		return "not strict SSA"
	case ReasonUnreachableCode:
		return "unreachable code is not inert"
	case ReasonConstrained:
		return "machine constraints break plain chordality"
	}
	return "unknown"
}

// Inapplicable returns the typed reason the plain IFG-free fast path cannot
// be used directly for f, or ReasonApplicable. Constraint annotations are
// reported after the structural reasons: a constrained function whose
// structure is fast-path-eligible yields ReasonConstrained, which the
// machine-honoring driver routes to per-class decomposition while a
// machine-less run may still ignore it.
func Inapplicable(f *ir.Func, dom *ir.Dominance) Reason {
	if !f.SSA {
		return ReasonNonSSA
	}
	for _, b := range f.Blocks {
		if dom.Order[b.ID] >= 0 {
			continue
		}
		if len(b.Succs) > 0 {
			return ReasonUnreachableCode
		}
		for _, ins := range b.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				return ReasonUnreachableCode
			}
			if len(ins.Uses) > 0 {
				return ReasonUnreachableCode
			}
		}
	}
	if f.Constrained() {
		return ReasonConstrained
	}
	return ReasonApplicable
}

// Applicable reports whether the IFG-free fast path may be used for f: the
// function must be strict SSA and any unreachable block must be inert (no
// defs, no uses, no successors), so that it contributes neither vertices nor
// live sets. Unreachable code is exempt from SSA dominance checking, so a
// non-inert dead block could break the dominance ordering the fast path's
// elimination order relies on.
//
// Constraint annotations do not affect Applicable: a machine-less run
// ignores them, and the structure is the same. Machine-honoring drivers
// dispatch on Inapplicable's ReasonConstrained instead.
func Applicable(f *ir.Func, dom *ir.Dominance) bool {
	switch Inapplicable(f, dom) {
	case ReasonApplicable, ReasonConstrained:
		return true
	}
	return false
}

// Scratch recycles the transient memory of Derive across functions (bitsets,
// the live-set interner, temporary index slices). The Structures returned by
// Derive never alias scratch memory and stay valid indefinitely; the Scratch
// itself is not safe for concurrent use.
type Scratch struct {
	arena  bitset.Arena
	intern *bitset.Interner
	// Project's interner (apart from Derive's, whose table is larger;
	// created on first use), its translation buffer and its
	// full-to-projected vertex and set maps.
	projIntern *bitset.Interner
	vsBuf      []int
	vertexMap  []int
	setMap     []int32
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{intern: bitset.NewInterner(64)} }

// Derive builds the clique structure of f from its liveness information and
// dominance tree. It returns nil when a structural assumption fails — the
// caller must then fall back to the explicit interference-graph path. A nil
// scratch uses private transient memory.
//
// The caller is responsible for gating on Applicable (Derive also returns
// nil on most non-applicable inputs, but Applicable is the documented
// contract).
func Derive(info *liveness.Info, dom *ir.Dominance, scratch *Scratch) *Structure {
	return derive(info, dom, nil, scratch, nil)
}

// DeriveBudget is Derive under a resource budget, writing into dst: each
// derivation phase (vertex numbering, live-set interning, elimination order,
// membership index) charges its input size before running. The return pair
// distinguishes the two ways of coming back empty: (nil, error) when the
// budget tripped mid-derivation, (nil, nil) when a structural assumption
// failed and the caller should fall back to the explicit-graph path.
//
// dst follows Project's pattern: the result is dst itself, its sets, set
// slab, def-point sets, elimination order, membership index and degree
// table overwritten in the memory an earlier derivation left there (a nil
// dst allocates a new Structure). VertexOf and ValueOf alone are fresh on
// every derivation, so a caller may hand them out and keep them past dst's
// next derivation.
func DeriveBudget(info *liveness.Info, dom *ir.Dominance, dst *Structure, scratch *Scratch, m *budget.Meter) (*Structure, error) {
	s := derive(info, dom, dst, scratch, m)
	if s == nil && m.Exceeded() {
		return nil, m.Err()
	}
	return s, nil
}

// derive builds the clique structure into dst (nil: a new Structure), or
// returns nil when a structural assumption fails or meter trips.
func derive(info *liveness.Info, dom *ir.Dominance, dst *Structure, scratch *Scratch, meter *budget.Meter) *Structure {
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.arena.Reset()
	scratch.intern.Reset()
	arena := &scratch.arena

	f := info.F
	nv := f.NumValues
	s := dst
	if s == nil {
		s = &Structure{}
	}
	s.reset(f, info.MaxLive)

	if !meter.Charge(nv + len(info.Points)) {
		return nil // budget tripped before vertex numbering
	}

	// Vertex numbering: every value that is defined or used, ascending —
	// byte-identical to the ifg.Build numbering, which also counts values
	// live anywhere: liveness makes a value live only through a use or at
	// its definition, so live ⊆ defined ∪ used.
	present := arena.Set(nv)
	mark := func(v int) {
		if v >= 0 && v < nv {
			present.Add(v)
		}
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				mark(ins.Def)
			}
			for _, u := range ins.Uses {
				mark(u)
			}
		}
	}
	n := present.Count()
	s.N = n
	s.VertexOf = make([]int, nv)
	for i := range s.VertexOf {
		s.VertexOf[i] = -1
	}
	s.ValueOf = make([]int, 0, n)
	present.ForEach(func(v int) {
		s.VertexOf[v] = len(s.ValueOf)
		s.ValueOf = append(s.ValueOf, v)
	})

	// Intern the program-point live sets as they are, by reference (liveness
	// owns them until its next Compute, and the interner is reset before
	// then), and remember, per point, which interned set it maps to. The
	// value→vertex map is monotone, so the distinct sets, their first-
	// appearance order and their ascending member order are those of the
	// translated sets.
	if !meter.Charge(len(info.Points)) {
		return nil
	}
	pointSet := arena.Ints(len(info.Points))
	pointSet = pointSet[:len(info.Points)]
	intern := scratch.intern
	for pi, p := range info.Points {
		if len(p.Live) == 0 {
			pointSet[pi] = -1
			continue
		}
		idx, _ := intern.InternRef(p.Live)
		pointSet[pi] = idx
	}

	// Def-point sets. Every vertex must have a recorded definition instant;
	// a miss means the input was not the strict SSA shape this path is for.
	s.DefSetOf = resizeInt32(s.DefSetOf, n)
	for vx, val := range s.ValueOf {
		dp := info.DefPointOf[val]
		if dp < 0 || dp >= len(pointSet) || pointSet[dp] < 0 {
			return nil
		}
		s.DefSetOf[vx] = int32(pointSet[dp])
	}

	// PEO: reverse definition order along a dominance-tree preorder.
	if !meter.Charge(n) {
		return nil
	}
	peo := dominancePEO(f, dom, s.VertexOf, n, s.PEO, arena)
	if peo == nil {
		return nil
	}
	s.PEO = peo

	// Translate each distinct set once, straight into one exact-size slab
	// (the interned sets belong to liveness). A live value without a vertex
	// means the input was not what this path is for.
	interned := intern.Sets()
	total := 0
	for _, set := range interned {
		total += len(set)
	}
	if !meter.Charge(n + total) {
		return nil
	}
	slab := s.setSlab
	if cap(slab) < total {
		slab = make([]int, total)
	}
	s.setSlab = slab[:total]
	if cap(s.Sets) < len(interned) {
		s.Sets = make([][]int, len(interned))
	}
	s.Sets = s.Sets[:len(interned)]
	start := 0
	for i, set := range interned {
		out := slab[start : start+len(set) : start+len(set)]
		for j, v := range set {
			if out[j] = s.VertexOf[v]; out[j] < 0 {
				return nil
			}
		}
		s.Sets[i] = out
		start += len(set)
	}
	s.index(total, arena.Ints(n)[:n])
	return s
}

// reset readies s to be overwritten with a structure of f: it records f and
// its pressure peak and drops the cached degree table, keeping its memory
// for the next Degrees.
func (s *Structure) reset(f *ir.Func, maxLive int) {
	if s.degrees != nil {
		s.degBuf = s.degrees
	}
	s.F, s.MaxLive, s.degrees = f, maxLive, nil
}

// index builds the CSR membership index of s from its Sets, which hold
// total members altogether; fill is scratch of length N. Index slices s
// already owns are reused.
func (s *Structure) index(total int, fill []int) {
	n := s.N
	s.CliqueOff = resizeInt32(s.CliqueOff, n+1)
	for _, set := range s.Sets {
		for _, v := range set {
			s.CliqueOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		s.CliqueOff[v+1] += s.CliqueOff[v]
	}
	s.CliqueIdx = resizeInt32(s.CliqueIdx, total)
	for v := range fill {
		fill[v] = int(s.CliqueOff[v])
	}
	for ci, set := range s.Sets {
		for _, v := range set {
			s.CliqueIdx[fill[v]] = int32(ci)
			fill[v]++
		}
	}
}

// resizeInt32 returns s resized to n with every element zero.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Project returns the clique structure of the subgraph induced by the
// values with include[v] set (include is indexed by value ID): the vertices
// keep their relative order, each live set is projected onto the subset,
// the elimination order is the corresponding subsequence of s.PEO (induced
// subgraphs of chordal graphs are chordal, and a subsequence of a PEO is a
// PEO of the induced subgraph), and MaxLive is the subset's own pressure
// peak. The result equals a derivation from liveness restricted to the
// subset: the projections are interned in the order of s.Sets, which is the
// order of their first program point. The machine-constrained driver uses it
// to carve one chordal subproblem per register class out of the one
// structure it derives.
//
// When the mask keeps every vertex, Project returns s itself. Otherwise the
// result is written into dst, reusing the memory it holds from an earlier
// Project (a nil dst allocates a new Structure); it shares nothing with s or
// the scratch, and is valid until dst is projected into again. A nil
// scratch uses private transient memory.
func (s *Structure) Project(include []bool, dst *Structure, scratch *Scratch) *Structure {
	if scratch == nil {
		scratch = NewScratch()
	}
	if cap(scratch.vertexMap) < s.N {
		scratch.vertexMap = make([]int, s.N)
	}
	newOf := scratch.vertexMap[:s.N]
	n := 0
	for vx, val := range s.ValueOf {
		newOf[vx] = -1
		if include[val] {
			newOf[vx] = n
			n++
		}
	}
	if n == s.N {
		return s
	}
	if dst == nil {
		dst = &Structure{}
	}
	dst.reset(s.F, 0)
	dst.N = n

	if cap(dst.VertexOf) < len(s.VertexOf) {
		dst.VertexOf = make([]int, len(s.VertexOf))
	}
	dst.VertexOf = dst.VertexOf[:len(s.VertexOf)]
	for i := range dst.VertexOf {
		dst.VertexOf[i] = -1
	}
	dst.ValueOf = dst.ValueOf[:0]
	for vx, val := range s.ValueOf {
		if newOf[vx] >= 0 {
			dst.VertexOf[val] = newOf[vx]
			dst.ValueOf = append(dst.ValueOf, val)
		}
	}
	dst.PEO = dst.PEO[:0]
	for _, vx := range s.PEO {
		if newOf[vx] >= 0 {
			dst.PEO = append(dst.PEO, newOf[vx])
		}
	}

	// Project every set; distinct full sets may coincide on the subset, so
	// the projections are interned again.
	if scratch.projIntern == nil {
		scratch.projIntern = bitset.NewInterner(64)
	}
	intern := scratch.projIntern
	intern.Reset()
	if cap(scratch.setMap) < len(s.Sets) {
		scratch.setMap = make([]int32, len(s.Sets))
	}
	setMap := scratch.setMap[:len(s.Sets)]
	vs := scratch.vsBuf
	for i, set := range s.Sets {
		vs = vs[:0]
		for _, vx := range set {
			if nx := newOf[vx]; nx >= 0 {
				vs = append(vs, nx)
			}
		}
		if len(vs) == 0 {
			setMap[i] = -1
			continue
		}
		dst.MaxLive = max(dst.MaxLive, len(vs))
		idx, _ := intern.Intern(vs)
		setMap[i] = int32(idx)
	}
	scratch.vsBuf = vs
	interned := intern.Sets()
	total := 0
	for _, set := range interned {
		total += len(set)
	}
	slab := dst.setSlab[:0]
	for _, set := range interned {
		slab = append(slab, set...)
	}
	dst.setSlab = slab
	dst.Sets = dst.Sets[:0]
	start := 0
	for _, set := range interned {
		end := start + len(set)
		dst.Sets = append(dst.Sets, slab[start:end:end])
		start = end
	}

	// A vertex's def-point set projects to the def-point set of the subset
	// (it contains the vertex itself, so the projection is never empty).
	dst.DefSetOf = resizeInt32(dst.DefSetOf, n)
	for vx, nx := range newOf {
		if nx >= 0 {
			dst.DefSetOf[nx] = setMap[s.DefSetOf[vx]]
		}
	}
	dst.index(total, newOf[:n])
	return dst
}

// DominancePEO returns the vertices of a strict-SSA function in reverse
// definition order along a dominance-tree preorder — a perfect elimination
// order of the interference graph — or nil when some vertex lacks a unique
// definition in reachable code. vertexOf maps value IDs to the caller's
// dense vertex numbering of size n. The explicit-graph path uses this so its
// elimination order (and therefore every allocation tie-break) matches the
// clique fast path exactly.
func DominancePEO(f *ir.Func, dom *ir.Dominance, vertexOf []int, n int) []int {
	var arena bitset.Arena
	return dominancePEO(f, dom, vertexOf, n, nil, &arena)
}

// dominancePEO returns the vertices in reverse definition order along a
// dominance-tree preorder, written into dst's memory when it is large
// enough, or nil when some vertex lacks a (unique) definition in reachable
// code.
func dominancePEO(f *ir.Func, dom *ir.Dominance, vertexOf []int, n int, dst []int, arena *bitset.Arena) []int {
	peo := dst[:0]
	if cap(peo) < n {
		peo = make([]int, n)
	}
	peo = peo[:n]
	next := n // fill from the back: first-defined vertex ends up last
	seen := arena.Set(n)
	emit := func(val int) bool {
		vx := vertexOf[val]
		if vx < 0 || seen.Has(vx) {
			return false
		}
		seen.Add(vx)
		next--
		peo[next] = vx
		return true
	}
	stack := arena.Ints(len(f.Blocks))
	stack = append(stack, 0)
	for len(stack) > 0 {
		bid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ins := range f.Blocks[bid].Instrs {
			if !ins.Op.HasDef() || ins.Def == ir.NoValue {
				continue
			}
			if !emit(ins.Def) {
				return nil // double definition, or a value with no vertex
			}
		}
		// Children are pushed in reverse so they pop in Children order; any
		// preorder works (ancestors precede descendants), this one is the
		// deterministic choice.
		children := dom.Children[bid]
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	if next != 0 {
		return nil // some vertex is never defined in reachable code
	}
	return peo
}

// FrankScratch recycles the per-layer memory of MaxWeightStable.
type FrankScratch struct {
	current []float64
	red     []int
	blue    []bool
	out     []int
}

// MaxWeightStable computes a maximum weighted stable set of the interference
// graph, equivalent to stable.MaxWeightChordal on the materialized graph
// with the structure's PEO — but using only the def-point sets.
//
// Frank's algorithm charges each vertex, in elimination order, against its
// not-yet-processed neighbours; in reverse definition order those are
// exactly the members of the vertex's def-point set (charging the
// already-processed members as well is harmless: their residual weight is
// never read again). The returned slice is valid until the next call with
// the same scratch.
func (s *Structure) MaxWeightStable(w []float64, fs *FrankScratch) []int {
	n := s.N
	if cap(fs.current) < n {
		fs.current = make([]float64, n)
		fs.blue = make([]bool, n)
	}
	current := fs.current[:n]
	copy(current, w)
	blue := fs.blue[:n]
	for i := range blue {
		blue[i] = false
	}
	red := fs.red[:0]
	// Phase 1: scan the PEO; greedily charge each still-positive vertex
	// against its def-point set, marking it red (LIFO).
	for _, v := range s.PEO {
		cv := current[v]
		if cv <= 0 {
			continue
		}
		red = append(red, v)
		for _, u := range s.Sets[s.DefSetOf[v]] {
			if u == v {
				continue
			}
			current[u] -= cv
			if current[u] < 0 {
				current[u] = 0
			}
		}
		current[v] = 0
	}
	fs.red = red
	// Phase 2: pop reds LIFO (definition order); keep each red none of
	// whose earlier-defined neighbours — all inside its def-point set — was
	// kept. Later-defined neighbours cannot be blue yet, so the def-point
	// set check is complete.
	out := fs.out[:0]
	for i := len(red) - 1; i >= 0; i-- {
		v := red[i]
		ok := true
		for _, u := range s.Sets[s.DefSetOf[v]] {
			if u != v && blue[u] {
				ok = false
				break
			}
		}
		if ok {
			blue[v] = true
			out = append(out, v)
		}
	}
	fs.out = out
	return out
}

// Degrees returns the interference-graph degree of every vertex, computed
// from the def-point sets alone: every edge {u,v} (with u defined before v)
// appears exactly once as u ∈ DefSet(v), except between phi defs of the same
// block, whose def sets mutually contain each other and would double-count.
// The result is cached on the structure.
func (s *Structure) Degrees() []int {
	if s.degrees != nil {
		return s.degrees
	}
	deg := s.degBuf
	if cap(deg) < s.N {
		deg = make([]int, s.N)
	} else {
		deg = deg[:s.N]
		clear(deg)
	}
	for v := 0; v < s.N; v++ {
		for _, u := range s.Sets[s.DefSetOf[v]] {
			if u != v {
				deg[u]++
				deg[v]++
			}
		}
	}
	// Phi defs of one block are pairwise mutual members of each other's def
	// sets (the block's first point): each of the k phis was over-counted by
	// k-1.
	for _, b := range s.F.Blocks {
		k := 0
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			k++
		}
		if k < 2 {
			continue
		}
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			if vx := s.VertexOf[ins.Def]; vx >= 0 {
				deg[vx] -= k - 1
			}
		}
	}
	s.degrees = deg
	return deg
}

// CliquesOf returns the indices (into Sets) of the live sets containing v.
func (s *Structure) CliquesOf(v int) []int32 {
	return s.CliqueIdx[s.CliqueOff[v]:s.CliqueOff[v+1]]
}

// BuildGraph materializes the explicit interference graph: the union of the
// live-set cliques, which covers every interference edge. The result is
// frozen and identical to the graph ifg.FromLiveness builds for the same
// function.
func (s *Structure) BuildGraph() *graph.Graph {
	g := graph.New(s.N)
	for _, set := range s.Sets {
		g.AddClique(set)
	}
	g.Freeze()
	return g
}
