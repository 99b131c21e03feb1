// Package liveness computes live variable information for ir functions:
// per-block live-in/live-out sets, per-program-point live sets, and MaxLive,
// the maximal register pressure. Phi instructions follow the SSA convention:
// a phi's operands are live out of the corresponding predecessor blocks (not
// live into the phi's block), and the phi's result is live in.
//
// Internally every set is a dense bitset over value IDs; the public API
// stays sorted []int slices (ascending by construction of the bitset
// iteration), so callers are unaffected by the representation.
package liveness

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/ir"
)

// Info is the result of analysing one function.
type Info struct {
	F *ir.Func
	// LiveIn[b] / LiveOut[b] are sorted value ID slices for block b.
	LiveIn  [][]int
	LiveOut [][]int
	// Points lists the live set at every program point of every reachable
	// block, in layout order: for block b, Points entries appear for the
	// point before each non-phi instruction and one for the block end
	// (live-out). Phi defs are folded into the block's first point.
	Points []Point
	// DefPointOf maps each value ID to the index in Points of its
	// definition instant — the program point at which the value's register
	// is written while everything live after the defining instruction still
	// holds its register. For phi defs this is the block's first point
	// (phis define at the block boundary). -1 for values with no
	// definition. Only meaningful for single-definition (strict SSA)
	// functions; with multiple definitions the last block processed wins.
	// This is the hook the IFG-free fast path builds its clique structure
	// from: Points[DefPointOf[v]].Live is exactly the def-point clique the
	// interference graph would materialize around v.
	DefPointOf []int
	// MaxLive is the maximum, over all points, of the live-set size.
	MaxLive int
}

// Point is the live set at one program point.
type Point struct {
	Block int
	// Index is the instruction index the set applies before; len(Instrs)
	// denotes the block-end point.
	Index int
	// Live is the sorted set of values live at (i.e. across) this point.
	Live []int
}

// blockSets carries the per-block bitsets of the dataflow problem.
type blockSets struct {
	use, def, phiDef []bitset.Set
	// Phi-operand liveness, flattened: block b's predecessor slot k (the
	// k-th operand of its phis) is phiUse[phiOff[b]+k]. Blocks without phis
	// get no slots (phiOff[b] == phiOff[b+1]), so the whole table is two
	// arena carvings instead of one map per phi block.
	phiOff []int
	phiUse []bitset.Set
}

// Scratch recycles the analysis' backing memory across functions: dataflow
// bitsets, live-in/out slices, per-point snapshots and the program-point
// list itself are carved from reusable storage that is reset per Compute
// call instead of reallocated. Batch pipeline workers hold one Scratch each
// and run thousands of functions through it.
//
// The lifetime contract is strict: an Info returned by (*Scratch).Compute —
// the Info itself and every slice inside it — is valid only until the next
// Compute call on the same Scratch. Callers that retain liveness results
// across functions must use the package-level Compute. A Scratch is not
// safe for concurrent use.
type Scratch struct {
	arena bitset.Arena
	info  Info
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Compute runs the analysis reusing s's backing memory. See the Scratch
// lifetime contract.
func (s *Scratch) Compute(f *ir.Func) *Info {
	info, _ := s.ComputeBudget(f, nil)
	return info
}

// ComputeBudget is Compute under a resource budget: each dataflow fixpoint
// sweep charges the block count and each program-point block walk charges
// its instruction count. On a budget trip it stops and returns (nil, the
// meter's typed error); a nil meter never trips.
func (s *Scratch) ComputeBudget(f *ir.Func, m *budget.Meter) (*Info, error) {
	s.arena.Reset()
	// The Info and its LiveIn/LiveOut/Points headers are recycled too.
	n := len(f.Blocks)
	info := &s.info
	*info = Info{
		LiveIn:  resize(info.LiveIn, n),
		LiveOut: resize(info.LiveOut, n),
		Points:  info.Points[:0],
	}
	if !compute(f, &s.arena, info, m) {
		return nil, m.Err()
	}
	return info, nil
}

// Compute runs the analysis with a private arena; the result does not alias
// any shared memory and stays valid indefinitely.
func Compute(f *ir.Func) *Info {
	info, _ := ComputeBudget(f, nil)
	return info
}

// ComputeBudget is the budget-governed form of the package-level Compute.
func ComputeBudget(f *ir.Func, m *budget.Meter) (*Info, error) {
	n := len(f.Blocks)
	info := &Info{LiveIn: make([][]int, n), LiveOut: make([][]int, n)}
	if !compute(f, new(bitset.Arena), info, m) {
		return nil, m.Err()
	}
	return info, nil
}

// resize returns s with length n, reusing its memory when large enough; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compute fills info, whose LiveIn and LiveOut have one entry per block,
// carving every set from arena. It reports false when the budget meter
// trips, leaving info partial.
func compute(f *ir.Func, arena *bitset.Arena, info *Info, meter *budget.Meter) bool {
	n := len(f.Blocks)
	nv := f.NumValues
	info.F = f
	sets := blockSets{
		use:    arena.Slab(n, nv),
		def:    arena.Slab(n, nv),
		phiDef: arena.Slab(n, nv),
	}
	sets.phiOff = arena.Ints(n + 1)
	sets.phiOff = sets.phiOff[:n+1]
	slots := 0
	for _, b := range f.Blocks {
		sets.phiOff[b.ID] = slots
		if len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpPhi {
			slots += len(b.Preds)
		}
	}
	sets.phiOff[n] = slots
	sets.phiUse = arena.Slab(slots, nv)
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				sets.phiDef[b.ID].Add(ins.Def)
				sets.def[b.ID].Add(ins.Def)
				for k, u := range ins.Uses {
					// The second guard covers malformed inputs (a phi not
					// leading its block gets no slots).
					if k >= len(b.Preds) || sets.phiOff[b.ID]+k >= sets.phiOff[b.ID+1] {
						continue
					}
					sets.phiUse[sets.phiOff[b.ID]+k].Add(u)
				}
				continue
			}
			for _, u := range ins.Uses {
				if !sets.def[b.ID].Has(u) {
					sets.use[b.ID].Add(u)
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				sets.def[b.ID].Add(ins.Def)
			}
		}
	}
	liveIn := arena.Slab(n, nv)
	liveOut := arena.Slab(n, nv)
	// Backward fixpoint. LiveIn(b) = use(b) ∪ phiDef(b) ∪ (LiveOut(b) \ def(b))
	// (phi defs are "defined at the block boundary" and count as live-in).
	// LiveOut(b) = ∪_{s∈succ(b)} (LiveIn(s) \ phiDef(s)) ∪ phiUse(s)[b].
	tmp := arena.Set(nv)
	for changed := true; changed; {
		if !meter.Charge(n) {
			return false // budget tripped mid-fixpoint: no partial results
		}
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := liveOut[b.ID]
			for _, s := range b.Succs {
				tmp.CopyFrom(liveIn[s])
				tmp.AndNot(sets.phiDef[s])
				if out.OrChanged(tmp) {
					changed = true
				}
				if lo, hi := sets.phiOff[s], sets.phiOff[s+1]; hi > lo {
					for k, p := range f.Blocks[s].Preds {
						if p == b.ID && out.OrChanged(sets.phiUse[lo+k]) {
							changed = true
						}
					}
				}
			}
			in := liveIn[b.ID]
			if in.OrChanged(sets.use[b.ID]) {
				changed = true
			}
			if in.OrChanged(sets.phiDef[b.ID]) {
				changed = true
			}
			tmp.CopyFrom(out)
			tmp.AndNot(sets.def[b.ID])
			if in.OrChanged(tmp) {
				changed = true
			}
		}
	}
	for i := 0; i < n; i++ {
		info.LiveIn[i] = liveIn[i].AppendTo(arena.Ints(liveIn[i].Count()))
		info.LiveOut[i] = liveOut[i].AppendTo(arena.Ints(liveOut[i].Count()))
	}
	return info.computePoints(liveOut, arena, meter)
}

// computePoints walks each block backward from its live-out set, recording
// the live set before every non-phi instruction plus the block-end point,
// and the definition instant of every value (DefPointOf). It reports false
// when the budget meter trips mid-walk.
func (info *Info) computePoints(liveOut []bitset.Set, arena *bitset.Arena, meter *budget.Meter) bool {
	f := info.F
	nv := f.NumValues
	live := arena.Set(nv)
	snapshot := func() []int {
		return live.AppendTo(arena.Ints(live.Count()))
	}
	info.DefPointOf = arena.Ints(nv)
	info.DefPointOf = info.DefPointOf[:nv]
	for i := range info.DefPointOf {
		info.DefPointOf[i] = -1
	}
	for _, b := range f.Blocks {
		if !meter.Charge(len(b.Instrs) + 1) {
			return false
		}
		live.CopyFrom(liveOut[b.ID])
		endPoint := Point{Block: b.ID, Index: len(b.Instrs), Live: snapshot()}
		// Points of this block are appended to info.Points in reverse layout
		// order starting at base, then flipped in place — no per-block
		// staging slice. Def instants are first recorded as backward
		// positions within the block segment, encoded negative (-(bwd+3), or
		// -2 for the block-end point) so the forward translation pass below
		// can tell them apart from the final Points indices of earlier
		// blocks.
		base := len(info.Points)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			ins := &b.Instrs[i]
			if ins.Op == ir.OpPhi {
				// Phi defs live from block entry; the first recorded point
				// below (live-in) already includes them via the def being
				// live across. Remove nothing, add nothing here.
				continue
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				// The definition instant: the result register is written
				// while everything live after the instruction still holds
				// its register. For a dead definition this set is strictly
				// larger than any surrounding live set, and it is what the
				// interference graph's cliques reflect — record it so
				// MaxLive equals the clique number on SSA functions.
				if !live.Has(ins.Def) {
					live.Add(ins.Def)
					info.Points = append(info.Points, Point{Block: b.ID, Index: i, Live: snapshot()})
					info.DefPointOf[ins.Def] = -(len(info.Points) - base - 1 + 3)
				} else if len(info.Points) > base {
					// Live def: the instant is the point just after the
					// instruction, i.e. the last point recorded so far.
					info.DefPointOf[ins.Def] = -(len(info.Points) - base - 1 + 3)
				} else {
					info.DefPointOf[ins.Def] = -2 // block-end point
				}
				live.Remove(ins.Def)
			}
			for _, u := range ins.Uses {
				live.Add(u)
			}
			info.Points = append(info.Points, Point{Block: b.ID, Index: i, Live: snapshot()})
		}
		m := len(info.Points) - base
		// The segment is in reverse layout order; flip, then append the
		// block end.
		seg := info.Points[base:]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		// Phi defs are live-in: fold them into the first point so pressure
		// at the block boundary is accounted for.
		phis := 0
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phis++
			}
		}
		var phiDefs []int
		if phis > 0 {
			phiDefs = arena.Ints(phis)
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpPhi {
					phiDefs = append(phiDefs, ins.Def)
				}
			}
			sort.Ints(phiDefs)
			var first *Point
			if m > 0 {
				first = &seg[0]
			} else {
				first = &endPoint
			}
			first.Live = mergeSorted(arena.Ints(len(first.Live)+len(phiDefs)), first.Live, phiDefs)
		}
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi || !ins.Op.HasDef() || ins.Def == ir.NoValue {
				continue
			}
			switch dp := info.DefPointOf[ins.Def]; {
			case dp == -2:
				info.DefPointOf[ins.Def] = base + m // block-end point
			case dp <= -3:
				info.DefPointOf[ins.Def] = base + (m - 1 - (-dp - 3))
			}
		}
		for _, pd := range phiDefs {
			info.DefPointOf[pd] = base // first point (or block end when m == 0)
		}
		info.Points = append(info.Points, endPoint)
	}
	for _, p := range info.Points {
		if len(p.Live) > info.MaxLive {
			info.MaxLive = len(p.Live)
		}
	}
	return true
}

// LiveSets returns the distinct live sets over all program points, each
// sorted, with duplicates removed. For a strict-SSA function, the maximal
// ones among these are exactly the maximal cliques of the interference
// graph.
func (info *Info) LiveSets() [][]int {
	intern := bitset.NewInterner(len(info.Points))
	for _, p := range info.Points {
		if len(p.Live) == 0 {
			continue
		}
		intern.InternRef(p.Live)
	}
	return intern.Sets()
}

// mergeSorted merges two sorted slices into out (an empty slice with enough
// capacity) without duplicates.
func mergeSorted(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
