// Biased assignment support: the clique-native (IFG-free) side of
// coalescing. Instead of merging vertices of a materialized interference
// graph, the fast path extracts φ/copy moves straight from the ir.Func,
// groups copy-related values into affinity classes via union-find (refusing
// interfering merges always, and colourability-threatening merges under the
// Briggs criterion checked against clique-membership degrees), and hands the
// resulting per-value class table to the tree-scan assigner as a register
// preference: a value prefers the register its affine partners already hold,
// when free — never at the cost of an extra spill.
package coalesce

import (
	"slices"
	"sort"

	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/spillcost"
)

// VMove is one register-to-register copy at the value level: a φ operand
// flowing across a CFG edge, or an explicit copy instruction. Unlike Move,
// endpoints are value IDs, so no interference graph is needed to extract
// them. Cost is the dynamic frequency of the move under the block-frequency
// model.
type VMove struct {
	Dst, Src int
	Cost     float64
}

// MovesFromFunc extracts all coalescable moves of a function at the value
// level: φ-operand transfers (placed on the incoming edge, charged at the
// predecessor's frequency) and OpCopy instructions. Self-moves (dst == src)
// carry no cost and are skipped.
func MovesFromFunc(f *ir.Func, model spillcost.Model) []VMove {
	return appendMoves(nil, f, spillcost.BlockFrequencies(f, model))
}

// Moves is MovesFromFunc into the scratch's memory, with block b at loop
// depth depth[b] (nil: Block.LoopDepth); the result is valid until the next
// call.
func (sc *BiasScratch) Moves(f *ir.Func, model spillcost.Model, depth []int) []VMove {
	sc.freqs = spillcost.FrequenciesAt(sc.freqs, f, model, depth)
	sc.moves = appendMoves(sc.moves[:0], f, sc.freqs)
	return sc.moves
}

// appendMoves appends the moves of f to out, charged at the block
// frequencies freqs.
func appendMoves(out []VMove, f *ir.Func, freqs []float64) []VMove {
	add := func(dst, src int, cost float64) {
		if dst < 0 || src < 0 || dst == src {
			return
		}
		out = append(out, VMove{Dst: dst, Src: src, Cost: cost})
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			switch ins.Op {
			case ir.OpPhi:
				for k, u := range ins.Uses {
					if k < len(blk.Preds) {
						add(ins.Def, u, freqs[blk.Preds[k]])
					}
				}
			case ir.OpCopy:
				add(ins.Def, ins.Uses[0], freqs[blk.ID])
			}
		}
	}
	return out
}

// TotalCost sums the dynamic cost of a move list.
func TotalCost(moves []VMove) float64 {
	var c float64
	for _, m := range moves {
		c += m.Cost
	}
	return c
}

// Affinity is the result of clique-native affinity construction: a partition
// of copy-related, non-interfering values into preference classes.
type Affinity struct {
	// ClassOf maps value ID to affinity class (-1 when the value is in no
	// class). Every class has at least two members.
	ClassOf []int32
	// NumClasses is the number of affinity classes.
	NumClasses int
	// Merged is the number of union operations performed.
	Merged int
}

// BiasScratch holds the reusable buffers of BuildAffinity so steady-state
// callers allocate nothing per function beyond the result itself.
type BiasScratch struct {
	parent  []int32
	size    []int32
	members [][]int32

	inClass   []uint32 // stamped: vertex is a member of the merging classes
	seen      []uint32 // stamped per member: neighbour already counted
	nbrStamp  []uint32 // stamped: vertex already in the neighbour list
	adjCount  []int32  // members adjacent to this neighbour
	neighbors []int32
	epoch     uint32

	freqs   []float64              // Moves: block frequencies
	moves   []VMove                // Moves
	sorted  []VMove                // moves by decreasing cost
	byClass [ir.NumClasses][]VMove // constrained: sorted moves per register class
}

func (sc *BiasScratch) grow(n int) {
	if cap(sc.parent) < n {
		sc.parent = make([]int32, n)
		sc.size = make([]int32, n)
		sc.members = make([][]int32, n)
		sc.inClass = make([]uint32, n)
		sc.seen = make([]uint32, n)
		sc.nbrStamp = make([]uint32, n)
		sc.adjCount = make([]int32, n)
	}
	sc.parent = sc.parent[:n]
	sc.size = sc.size[:n]
	sc.members = sc.members[:n]
	sc.inClass = sc.inClass[:n]
	sc.seen = sc.seen[:n]
	sc.nbrStamp = sc.nbrStamp[:n]
	sc.adjCount = sc.adjCount[:n]
}

// interferes reports whether vertices u and v interfere, using only the
// clique structure: u and v interfere iff one is live at the other's
// definition, i.e. iff one appears in the other's def-point set (sorted, so
// a binary search suffices).
func interferes(cs *cliques.Structure, u, v int) bool {
	if contains(cs.Sets[cs.DefSetOf[v]], u) {
		return true
	}
	return contains(cs.Sets[cs.DefSetOf[u]], v)
}

func contains(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// BuildAffinity groups the moves' endpoints into affinity classes over the
// clique structure cs. Moves are processed in decreasing cost order (most
// valuable merges first, matching Run). A merge is refused when any member
// of one class interferes with any member of the other; under Conservative
// it is additionally refused unless the Briggs criterion holds for the
// merged class: fewer than r neighbours of significant (≥ r) post-merge
// degree, with degrees read off the clique membership (no edges ever
// materialized). Returns nil when policy is Off or no class forms.
func BuildAffinity(cs *cliques.Structure, moves []VMove, policy Policy, r int, sc *BiasScratch) *Affinity {
	if policy == Off || len(moves) == 0 || cs.N == 0 {
		return nil
	}
	if sc == nil {
		sc = &BiasScratch{}
	}
	return sc.merge(cs, sc.sortMoves(moves), policy, r, nil)
}

// BuildAffinityConstrained builds the affinity partition of a
// machine-constrained function: one BuildAffinity pass per register class
// over the class's own moves (endpoints of different classes can never share
// a register) against the class capacity, merged into a single table with
// disjoint class IDs. The Briggs test uses the full structure's degrees (an
// over-estimate of the per-class induced subgraph's), which only makes
// Conservative refuse more merges — never unsound.
func BuildAffinityConstrained(cs *cliques.Structure, f *ir.Func, moves []VMove, policy Policy, caps [ir.NumClasses]int, sc *BiasScratch) *Affinity {
	if policy == Off || len(moves) == 0 || cs.N == 0 {
		return nil
	}
	if sc == nil {
		sc = &BiasScratch{}
	}
	// Filtering the sorted list keeps each class's moves in the order a
	// stable sort of that class alone would give.
	for c := range sc.byClass {
		sc.byClass[c] = sc.byClass[c][:0]
	}
	for _, m := range sc.sortMoves(moves) {
		if c := f.ClassOf(m.Dst); c == f.ClassOf(m.Src) && caps[c] > 0 {
			sc.byClass[c] = append(sc.byClass[c], m)
		}
	}
	var aff *Affinity
	for c, cm := range sc.byClass {
		if len(cm) > 0 {
			aff = sc.merge(cs, cm, policy, caps[c], aff)
		}
	}
	return aff
}

// sortMoves returns a copy of moves in scratch memory, stably sorted by
// decreasing cost (most valuable merges first, matching Run).
func (sc *BiasScratch) sortMoves(moves []VMove) []VMove {
	sc.sorted = append(sc.sorted[:0], moves...)
	slices.SortStableFunc(sc.sorted, func(a, b VMove) int {
		switch {
		case a.Cost > b.Cost:
			return -1
		case a.Cost < b.Cost:
			return 1
		}
		return 0
	})
	return sc.sorted
}

// merge groups the endpoints of sorted (by decreasing cost) into affinity
// classes against r registers and adds them to aff under fresh class IDs. It
// returns aff, allocated on the first class formed; nil when none forms.
func (sc *BiasScratch) merge(cs *cliques.Structure, sorted []VMove, policy Policy, r int, aff *Affinity) *Affinity {
	n := cs.N
	sc.grow(n)
	for i := 0; i < n; i++ {
		sc.parent[i] = int32(i)
		sc.size[i] = 1
		sc.members[i] = sc.members[i][:0]
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for sc.parent[x] != x {
			sc.parent[x] = sc.parent[sc.parent[x]]
			x = sc.parent[x]
		}
		return x
	}
	memberList := func(root int32) []int32 {
		if len(sc.members[root]) == 0 {
			sc.members[root] = append(sc.members[root], root)
		}
		return sc.members[root]
	}

	merged := 0
	for _, m := range sorted {
		dv, sv := cs.VertexOf[m.Dst], cs.VertexOf[m.Src]
		if dv < 0 || sv < 0 {
			continue
		}
		a, c := find(int32(dv)), find(int32(sv))
		if a == c {
			continue
		}
		ma, mc := memberList(a), memberList(c)
		if classesInterfere(cs, ma, mc) {
			continue
		}
		if policy == Conservative && !briggsClassOK(cs, ma, mc, r, sc) {
			continue
		}
		// Union by size; the representative's member list absorbs the other.
		if sc.size[a] < sc.size[c] {
			a, c = c, a
			ma, mc = mc, ma
		}
		sc.members[a] = append(ma, mc...)
		sc.members[c] = sc.members[c][:0]
		sc.parent[c] = a
		sc.size[a] += sc.size[c]
		merged++
	}
	if merged == 0 {
		return aff
	}

	if aff == nil {
		aff = &Affinity{ClassOf: make([]int32, len(cs.VertexOf))}
		for i := range aff.ClassOf {
			aff.ClassOf[i] = -1
		}
	}
	aff.Merged += merged
	// Class IDs in ascending vertex order of the representative: deterministic.
	for v := 0; v < n; v++ {
		if sc.parent[v] == int32(v) && len(sc.members[v]) > 1 {
			id := int32(aff.NumClasses)
			aff.NumClasses++
			for _, vx := range sc.members[v] {
				aff.ClassOf[cs.ValueOf[vx]] = id
			}
		}
	}
	return aff
}

// classesInterfere reports whether any member of a interferes with any
// member of c.
func classesInterfere(cs *cliques.Structure, a, c []int32) bool {
	for _, x := range a {
		for _, y := range c {
			if interferes(cs, int(x), int(y)) {
				return true
			}
		}
	}
	return false
}

// briggsClassOK applies the Briggs conservative test to the union of the
// two classes: after the merge, the combined node must have fewer than r
// neighbours of degree ≥ r. A neighbour adjacent to k members loses k−1
// from its degree when they fuse. Degrees and adjacency come from the
// clique membership index; no edges are materialized.
func briggsClassOK(cs *cliques.Structure, a, c []int32, r int, sc *BiasScratch) bool {
	if r <= 0 {
		return false
	}
	deg := cs.Degrees()
	sc.epoch++
	classStamp := sc.epoch
	for _, m := range a {
		sc.inClass[m] = classStamp
	}
	for _, m := range c {
		sc.inClass[m] = classStamp
	}
	sc.neighbors = sc.neighbors[:0]
	visit := func(m int32) {
		sc.epoch++
		memberStamp := sc.epoch
		for _, ci := range cs.CliquesOf(int(m)) {
			for _, u := range cs.Sets[ci] {
				if sc.inClass[u] == classStamp || sc.seen[u] == memberStamp {
					continue
				}
				sc.seen[u] = memberStamp
				if sc.nbrStamp[u] != classStamp {
					sc.nbrStamp[u] = classStamp
					sc.adjCount[u] = 0
					sc.neighbors = append(sc.neighbors, int32(u))
				}
				sc.adjCount[u]++
			}
		}
	}
	for _, m := range a {
		visit(m)
	}
	for _, m := range c {
		visit(m)
	}
	significant := 0
	for _, u := range sc.neighbors {
		if deg[u]-int(sc.adjCount[u])+1 >= r {
			significant++
			if significant >= r {
				return false
			}
		}
	}
	return true
}

// Stats reports the effect of biased assignment on one function's moves.
type Stats struct {
	// Policy is the coalescing policy that produced the bias.
	Policy Policy
	// Moves is the number of φ/copy moves and MoveCost their total dynamic
	// cost.
	Moves    int
	MoveCost float64
	// EliminatedCost is the dynamic cost of moves whose endpoints were
	// assigned the same register; ResidualCost is MoveCost minus it.
	EliminatedCost float64
	ResidualCost   float64
	// Classes is the number of affinity classes formed and Merged the number
	// of union-find merges behind them.
	Classes int
	Merged  int
}

// EliminatedFrac is the fraction of dynamic move cost eliminated (0 when
// there are no moves).
func (s *Stats) EliminatedFrac() float64 {
	if s.MoveCost == 0 {
		return 0
	}
	return s.EliminatedCost / s.MoveCost
}

// ResidualCost computes the dynamic move cost surviving an assignment: a
// move is eliminated iff both endpoints were allocated the same register.
// regOf is value-indexed (-1 = spilled or absent). Returns eliminated and
// residual cost; their sum is the total.
func ResidualCost(moves []VMove, regOf []int) (eliminated, residual float64) {
	for _, m := range moves {
		if r := regOf[m.Dst]; r >= 0 && r == regOf[m.Src] {
			eliminated += m.Cost
		} else {
			residual += m.Cost
		}
	}
	return eliminated, residual
}

// StatsFor assembles the Stats of one assignment outcome.
func StatsFor(policy Policy, moves []VMove, regOf []int, aff *Affinity) *Stats {
	st := &Stats{Policy: policy, Moves: len(moves)}
	st.EliminatedCost, st.ResidualCost = ResidualCost(moves, regOf)
	st.MoveCost = st.EliminatedCost + st.ResidualCost
	if aff != nil {
		st.Classes = aff.NumClasses
		st.Merged = aff.Merged
	}
	return st
}
