// Package regassign implements the assignment half of decoupled register
// allocation: once the allocation phase has decided which variables stay in
// registers (and the register pressure is everywhere at most R), a linear
// greedy scan over the dominance tree — the "tree-scan" — picks a concrete
// register for every allocated SSA value. The package also provides
// spill-everywhere code insertion: spilled variables get a store after their
// definition and a reload before every use.
package regassign

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// NoReg marks values that were not assigned a register (spilled values).
const NoReg = -1

// Scratch recycles the tree-scan's per-block working memory (liveness
// stamps, last-use indices, the register file) across functions. A Scratch
// is not safe for concurrent use; batch workers hold one each.
type Scratch struct {
	liveOutAt []int32 // stamp: liveOutAt[v] == epoch ⇔ v live out of the current block
	lastUse   []int32 // last use index, valid when lastUseAt[v] == epoch
	lastUseAt []int32
	inUse     []bool
	epoch     int32
	// The constrained scan's block stack, and the storage of the call spans
	// LiveThroughCalls returns.
	blocks     []int
	firstPoint []int
	spans      []CallSpan
	spanLive   []int
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) resize(nv, r int) {
	if cap(s.liveOutAt) < nv {
		s.liveOutAt = make([]int32, nv)
		s.lastUse = make([]int32, nv)
		s.lastUseAt = make([]int32, nv)
		s.epoch = 0
	}
	s.liveOutAt = s.liveOutAt[:nv]
	s.lastUse = s.lastUse[:nv]
	s.lastUseAt = s.lastUseAt[:nv]
	if cap(s.inUse) < r {
		s.inUse = make([]bool, r)
	}
	s.inUse = s.inUse[:r]
}

// Assign colours every allocated value of a strict-SSA function with a
// register in [0, r), walking the dominance tree in preorder and giving each
// definition the lowest register not held by an allocated value live at the
// definition point. allocated is indexed by value ID. It fails if some
// definition finds no free register, which cannot happen when the allocated
// register pressure is at most r everywhere (chordal/SSA guarantee).
func Assign(f *ir.Func, info *liveness.Info, allocated []bool, r int) ([]int, error) {
	return AssignWith(f, f.ComputeDominance(), info, allocated, r, nil)
}

// AssignWith is Assign with the dominance tree supplied by the caller (the
// pipeline already has one) and an optional reusable scratch.
func AssignWith(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool, r int, scratch *Scratch) ([]int, error) {
	return AssignBudget(f, dom, info, allocated, r, scratch, nil)
}

// AssignBudget is AssignWith under a resource budget: each block charges
// its instruction count before it is scanned, and a trip aborts the scan
// with the meter's typed error (there is no valid partial assignment — the
// caller degrades to a cheaper allocation instead). A nil meter never
// trips.
func AssignBudget(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool, r int, scratch *Scratch, meter *budget.Meter) ([]int, error) {
	return AssignBiasedBudget(f, dom, info, allocated, r, scratch, meter, nil)
}

// AssignBiasedBudget is AssignBudget with a coalescing bias: when a value
// belongs to an affinity class whose hint register is free at the value's
// definition point, it takes the hint instead of the lowest free register
// (eliminating the φ/copy move to its affine partners); otherwise the scan
// proceeds exactly as unbiased. A nil bias reproduces AssignBudget
// byte-for-byte. Bias never changes which values receive registers — only
// which registers they receive.
func AssignBiasedBudget(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool, r int, scratch *Scratch, meter *budget.Meter, bias *Bias) ([]int, error) {
	if !f.SSA {
		return nil, fmt.Errorf("regassign: tree-scan requires strict SSA")
	}
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.resize(f.NumValues, r)
	regOf := make([]int, f.NumValues)
	for i := range regOf {
		regOf[i] = NoReg
	}
	// Preorder over the dominator tree.
	var orderBlocks func(b int, visit func(int))
	orderBlocks = func(b int, visit func(int)) {
		visit(b)
		for _, c := range dom.Children[b] {
			orderBlocks(c, visit)
		}
	}
	var fail error
	orderBlocks(0, func(bid int) {
		if fail != nil {
			return
		}
		b := f.Blocks[bid]
		if !meter.Charge(len(b.Instrs) + 1) {
			fail = meter.Err()
			return
		}
		// A long-lived scratch (JSONL service workers) increments the epoch
		// once per block forever; on wrap, clear the stamps so a stale entry
		// from one full cycle ago cannot alias the current epoch.
		if scratch.epoch == math.MaxInt32 {
			clear(scratch.liveOutAt[:cap(scratch.liveOutAt)])
			clear(scratch.lastUseAt[:cap(scratch.lastUseAt)])
			scratch.epoch = 0
		}
		scratch.epoch++
		epoch := scratch.epoch
		inUse := scratch.inUse
		for i := range inUse {
			inUse[i] = false
		}
		// Registers already held at block entry: allocated live-in values.
		// Their defining blocks dominate this one, so they are coloured.
		for _, v := range info.LiveIn[bid] {
			if allocated[v] && regOf[v] >= 0 {
				inUse[regOf[v]] = true
			}
		}
		liveOut := func(v int) bool { return scratch.liveOutAt[v] == epoch }
		for _, v := range info.LiveOut[bid] {
			scratch.liveOutAt[v] = epoch
		}
		// Death points: last use index of each value not live-out.
		for i, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				continue // phi uses live in predecessors
			}
			for _, u := range ins.Uses {
				if !liveOut(u) {
					scratch.lastUse[u] = int32(i)
					scratch.lastUseAt[u] = epoch
				}
			}
		}
		lastUse := func(v int) (int, bool) {
			if scratch.lastUseAt[v] == epoch {
				return int(scratch.lastUse[v]), true
			}
			return 0, false
		}
		assign := func(v int) {
			if regOf[v] >= 0 {
				return // already coloured (phi defs are live-in too)
			}
			cls := bias.classOf(v)
			if cls >= 0 {
				if h := bias.hintOf(cls); h >= 0 && int(h) < r && !inUse[h] {
					regOf[v] = int(h)
					inUse[h] = true
					return
				}
			}
			for reg := 0; reg < r; reg++ {
				if !inUse[reg] {
					regOf[v] = reg
					inUse[reg] = true
					if bias != nil {
						bias.record(cls, reg)
					}
					return
				}
			}
			fail = fmt.Errorf("regassign: no free register for %s in %s (pressure exceeds %d)",
				f.NameOf(v), b.Name, r)
		}
		// Phi defs occupy registers from block entry.
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			if allocated[ins.Def] {
				assign(ins.Def)
				if fail != nil {
					return
				}
			}
		}
		// A phi def with no use in the block and not live-out dies at block
		// entry: it occupies a register only at the boundary instant (which
		// the liveness points account for) and must be freed before the
		// first non-phi instruction, or a dead phi def would pin a register
		// for the whole block and spuriously exhaust the register file.
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			d := ins.Def
			if !allocated[d] || liveOut(d) {
				continue
			}
			if _, used := lastUse(d); !used {
				inUse[regOf[d]] = false
			}
		}
		for i, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				// Assigned above; death inside the block is freed by the
				// lastUse processing below like any other value.
				continue
			}
			// Free the registers of allocated values dying at i — after
			// their use, before the def (use and def may share a register
			// only when the use dies here; freeing first models that). The
			// comma-ok lookup matters: a missing entry means "never dies
			// here" and must not compare equal to instruction index 0.
			for _, u := range ins.Uses {
				if death, dies := lastUse(u); dies && death == i && allocated[u] && regOf[u] >= 0 {
					inUse[regOf[u]] = false
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue && allocated[ins.Def] {
				// A def dead on arrival (never used, not live-out) still
				// needs a register at the definition instant.
				assign(ins.Def)
				if fail != nil {
					return
				}
				if !liveOut(ins.Def) {
					if _, used := lastUse(ins.Def); !used {
						inUse[regOf[ins.Def]] = false
					}
				}
			}
		}
	})
	if fail != nil {
		return nil, fail
	}
	return regOf, nil
}

// VerifyAssignment checks that no two simultaneously live allocated values
// share a register, using the per-point live sets.
func VerifyAssignment(info *liveness.Info, allocated []bool, regOf []int) error {
	maxReg := -1
	for _, reg := range regOf {
		if reg > maxReg {
			maxReg = reg
		}
	}
	seen := make([]int, maxReg+1)
	for i := range seen {
		seen[i] = -1
	}
	for _, p := range info.Points {
		for _, v := range p.Live {
			if !allocated[v] || regOf[v] == NoReg {
				continue
			}
			if prev := seen[regOf[v]]; prev >= 0 {
				return fmt.Errorf("regassign: values %s and %s share r%d at block %d point %d",
					info.F.NameOf(prev), info.F.NameOf(v), regOf[v], p.Block, p.Index)
			}
			seen[regOf[v]] = v
		}
		for _, v := range p.Live {
			if regOf[v] >= 0 {
				seen[regOf[v]] = -1
			}
		}
	}
	return nil
}
