// Package regassign implements the assignment half of decoupled register
// allocation: once the allocation phase has decided which variables stay in
// registers (and the register pressure is everywhere at most R), a linear
// greedy scan over the dominance tree — the "tree-scan" — picks a concrete
// register for every allocated SSA value. The package also provides
// spill-everywhere code insertion: spilled variables get a store after their
// definition and a reload before every use.
//
// There is one scan, (*Scratch).AssignConstrained, over register classes,
// pins and banned registers; a plain register count R is its one-class case
// (one GPR class of capacity R, nothing pinned or banned), which
// AssignBiasedBudget wraps.
package regassign

import (
	"fmt"
	"math"
	"math/bits"

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
	epoch     int32
	// The register file: one bit per register, each class's registers in
	// its own run of words (so a single class may exceed 64 registers).
	inUse  []uint64
	blocks []int // the scan's block stack
	// The storage of the call spans LiveThroughCalls returns.
	firstPoint []int
	spans      []CallSpan
	spanLive   []int
	// Verify's register → holding value table.
	seen []int
	// InsertSpillCode: phi-operand reloads grouped by the predecessor they
	// land in (offsets, fill cursors, slots, defs), the slot of every
	// reload temporary, and per-slot names.
	land, fill, landSlot, landDef []int
	reloadSlot                    []int
	names                         []string
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) resize(nv, words int) {
	if cap(s.liveOutAt) < nv {
		s.liveOutAt = make([]int32, nv)
		s.lastUse = make([]int32, nv)
		s.lastUseAt = make([]int32, nv)
		s.epoch = 0
	}
	s.liveOutAt = s.liveOutAt[:nv]
	s.lastUse = s.lastUse[:nv]
	s.lastUseAt = s.lastUseAt[:nv]
	if cap(s.inUse) < words {
		s.inUse = make([]uint64, words)
	}
	s.inUse = s.inUse[:words]
}

// Constraints is the machine input of the tree-scan for one function. The
// slices are indexed by value ID and span f.NumValues; each may be nil,
// meaning every value is a GPR, nothing is pinned and nothing is banned —
// with Caps = {R} that is the plain, unconstrained register file.
type Constraints struct {
	// Caps is the register count of each class.
	Caps [ir.NumClasses]int
	// Class is the register class of every value.
	Class []ir.Class
	// Pins is the fixed register (a RegRef) of every pre-colored value, and
	// NoReg for the others.
	Pins []int
	// Forbid is every value's mask of banned within-class register indexes
	// (bit i set = index i banned; indexes past 63 cannot be banned); the
	// driver encodes call-clobber avoidance and pin reservations there.
	Forbid []uint64
}

// OneClass returns the constraints of a plain register file of r registers.
func OneClass(r int) Constraints {
	return Constraints{Caps: [ir.NumClasses]int{ir.ClassGPR: r}}
}

func (c *Constraints) classOf(v int) ir.Class {
	if c.Class == nil {
		return ir.ClassGPR
	}
	return c.Class[v]
}

func (c *Constraints) pinOf(v int) int {
	if c.Pins == nil {
		return NoReg
	}
	return c.Pins[v]
}

func (c *Constraints) forbidOf(v int) uint64 {
	if c.Forbid == nil {
		return 0
	}
	return c.Forbid[v]
}

// indexIn returns reg's index within class cls, or -1 when reg is not a
// register of cls under the capacities. It decodes against the class rather
// than with ir.RegClassOf, so a single class may hold RegStride or more
// registers.
func (c *Constraints) indexIn(cls ir.Class, reg int) int {
	if idx := reg - int(cls)*ir.RegStride; idx >= 0 && idx < c.Caps[cls] {
		return idx
	}
	return -1
}

// Stuck describes where a scan gave up: the value that found no register,
// the block it was scanning, and the pin that was unavailable (NoReg when
// the value is unpinned and every admissible register was taken). Val is -1
// when the scan succeeded.
type Stuck struct {
	Val, Block int
	Class      ir.Class
	Pin        int
}

// Err formats the failure of a scan under cons.
func (s Stuck) Err(f *ir.Func, cons *Constraints) error {
	block := f.Blocks[s.Block].Name
	switch {
	case s.Pin != NoReg:
		return fmt.Errorf("regassign: pre-color %s of %s unavailable in %s",
			ir.RegName(s.Pin), f.NameOf(s.Val), block)
	case cons.Class == nil:
		return fmt.Errorf("regassign: no free register for %s in %s (pressure exceeds %d)",
			f.NameOf(s.Val), block, cons.Caps[ir.ClassGPR])
	}
	return fmt.Errorf("regassign: no admissible %s register for %s in %s", s.Class, f.NameOf(s.Val), block)
}

// AssignBiasedBudget colours every allocated value of a strict-SSA function
// with a register in [0, r): the one-class AssignConstrained. allocated is
// indexed by value ID. Each block charges its instruction count to meter (nil
// never trips) and a trip aborts with the meter's typed error. It fails if
// some definition finds no free register, which cannot happen when the
// allocated register pressure is at most r everywhere (chordal/SSA
// guarantee). A nil bias gives the unbiased assignment; bias never changes
// which values receive registers, only which registers they receive.
func AssignBiasedBudget(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool, r int, scratch *Scratch, meter *budget.Meter, bias *Bias) ([]int, error) {
	if scratch == nil {
		scratch = NewScratch()
	}
	cons := OneClass(r)
	regOf := make([]int, f.NumValues)
	stuck, err := scratch.AssignConstrained(f, dom, info, allocated, &cons, bias, meter, regOf)
	if err != nil {
		return nil, err
	}
	if stuck.Val >= 0 {
		return nil, stuck.Err(f, &cons)
	}
	return regOf, nil
}

// AssignConstrained is the tree-scan: walking the dominance tree in
// preorder, it gives every allocated value the lowest register of its own
// class (a RegRef) that is free at its definition and not in its forbid
// mask; pre-colored values get exactly their pin. It writes the assignment
// into regOf (length f.NumValues, NoReg for values without a register).
//
// With a bias, a value whose affinity class already converged on a register
// takes it when it is of the value's own class, inside the class capacity,
// free, and not in the value's forbid mask — otherwise the scan falls back
// to the lowest admissible choice. Pins always win (and seed the class hint,
// so copy chains rooted at an ABI register chase the pin).
//
// Each block charges its instruction count to meter (nil never trips); a
// trip aborts the scan with the meter's typed error. At legal pressure the
// one-class scan cannot get stuck, but pins and bans can make the greedy
// choice infeasible: the returned Stuck then names the value that found no
// register, so the driver can force-spill it and retry (always sound under
// spill-everywhere, and bounded by the value count), and regOf holds a
// partial assignment. The error reports a trip or inputs the scan cannot
// run on at all.
func (s *Scratch) AssignConstrained(f *ir.Func, dom *ir.Dominance, info *liveness.Info,
	allocated []bool, cons *Constraints, bias *Bias, meter *budget.Meter, regOf []int) (Stuck, error) {
	if !f.SSA {
		return Stuck{Val: -1}, fmt.Errorf("regassign: tree-scan requires strict SSA")
	}
	caps := &cons.Caps
	// Class c owns the words [base[c], base[c+1]) of the register file.
	var base [ir.NumClasses + 1]int
	for c, n := range caps {
		base[c+1] = base[c] + (n+63)/64
	}
	s.resize(f.NumValues, base[ir.NumClasses])
	inUse := s.inUse
	for i := range regOf {
		regOf[i] = NoReg
	}
	set := func(c ir.Class, idx int) { inUse[base[c]+idx>>6] |= 1 << uint(idx&63) }
	taken := func(c ir.Class, idx int) bool { return inUse[base[c]+idx>>6]&(1<<uint(idx&63)) != 0 }
	release := func(v int) {
		if reg := regOf[v]; reg != NoReg {
			c := cons.classOf(v)
			idx := reg - int(c)*ir.RegStride
			inUse[base[c]+idx>>6] &^= 1 << uint(idx&63)
		}
	}
	// take gives v register idx of class c.
	take := func(v int, c ir.Class, idx int) {
		regOf[v] = ir.MakeReg(c, idx)
		set(c, idx)
	}
	// assign colours v and reports whether it found a register.
	assign := func(v int) bool {
		if regOf[v] != NoReg {
			return true // already coloured (phi defs are live-in too)
		}
		c := cons.classOf(v)
		cls := bias.classOf(v)
		if pin := cons.pinOf(v); pin != NoReg {
			idx := cons.indexIn(c, pin)
			if idx < 0 || taken(c, idx) {
				return false
			}
			take(v, c, idx)
			if bias != nil {
				bias.record(cls, pin)
			}
			return true
		}
		ban := cons.forbidOf(v)
		if cls >= 0 {
			if h := bias.hintOf(cls); h != NoReg {
				if idx := cons.indexIn(c, int(h)); idx >= 0 && !taken(c, idx) && ban&(1<<uint(idx)) == 0 {
					take(v, c, idx)
					return true
				}
			}
		}
		for w := base[c]; w < base[c+1]; w++ {
			free := ^inUse[w]
			if w == base[c] {
				free &^= ban
			}
			if free == 0 {
				continue
			}
			// Bits past the capacity are never set, so the lowest free bit
			// of the first non-full word is the answer — or there is none.
			idx := (w-base[c])<<6 + bits.TrailingZeros64(free)
			if idx >= caps[c] {
				return false
			}
			take(v, c, idx)
			if bias != nil {
				bias.record(cls, regOf[v])
			}
			return true
		}
		return false
	}
	stuck := func(v, bid int) Stuck {
		return Stuck{Val: v, Block: bid, Class: cons.classOf(v), Pin: cons.pinOf(v)}
	}

	// Preorder over the dominator tree; children pop in Children order.
	s.blocks = append(s.blocks[:0], 0)
	for len(s.blocks) > 0 {
		bid := s.blocks[len(s.blocks)-1]
		s.blocks = s.blocks[:len(s.blocks)-1]
		b := f.Blocks[bid]
		if !meter.Charge(len(b.Instrs) + 1) {
			return Stuck{Val: -1}, meter.Err()
		}
		// A long-lived scratch (service workers) increments the epoch once
		// per block forever; on wrap, clear the stamps so a stale entry from
		// one full cycle ago cannot alias the current epoch.
		if s.epoch == math.MaxInt32 {
			clear(s.liveOutAt[:cap(s.liveOutAt)])
			clear(s.lastUseAt[:cap(s.lastUseAt)])
			s.epoch = 0
		}
		s.epoch++
		epoch := s.epoch
		// The register file is rebuilt per block from the allocated live-in
		// values (their defs dominate this block, so they are colored).
		clear(inUse)
		for _, v := range info.LiveIn[bid] {
			if allocated[v] && regOf[v] != NoReg {
				c := cons.classOf(v)
				set(c, regOf[v]-int(c)*ir.RegStride)
			}
		}
		for _, v := range info.LiveOut[bid] {
			s.liveOutAt[v] = epoch
		}
		// Death points: last use index of each value not live-out (phi uses
		// live in predecessors).
		for i, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				continue
			}
			for _, u := range ins.Uses {
				if s.liveOutAt[u] != epoch {
					s.lastUse[u] = int32(i)
					s.lastUseAt[u] = epoch
				}
			}
		}
		// Phi defs occupy registers from block entry.
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			if allocated[ins.Def] && !assign(ins.Def) {
				return stuck(ins.Def, bid), nil
			}
		}
		// A phi def with no use in the block and not live-out dies at block
		// entry: it occupies a register only at the boundary instant (which
		// the liveness points account for) and must be freed before the
		// first non-phi instruction, or it would hold a register for the
		// whole block and spuriously exhaust the register file.
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			if d := ins.Def; allocated[d] && s.liveOutAt[d] != epoch && s.lastUseAt[d] != epoch {
				release(d)
			}
		}
		for i, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				continue
			}
			// Free the registers of allocated values dying at i — after
			// their use, before the def (use and def may share a register
			// only when the use dies here; freeing first models that).
			for _, u := range ins.Uses {
				if s.lastUseAt[u] == epoch && s.lastUse[u] == int32(i) && allocated[u] {
					release(u)
				}
			}
			if d := ins.Def; ins.Op.HasDef() && d != ir.NoValue && allocated[d] {
				// A def dead on arrival (never used, not live-out) still
				// needs a register at the definition instant.
				if !assign(d) {
					return stuck(d, bid), nil
				}
				if s.liveOutAt[d] != epoch && s.lastUseAt[d] != epoch {
					release(d)
				}
			}
		}
		children := dom.Children[bid]
		for i := len(children) - 1; i >= 0; i-- {
			s.blocks = append(s.blocks, children[i])
		}
	}
	return Stuck{Val: -1}, nil
}

// VerifyAssignment checks that no two simultaneously live allocated values
// share a register, using the per-point live sets.
func VerifyAssignment(info *liveness.Info, allocated []bool, regOf []int) error {
	return new(Scratch).Verify(info, allocated, regOf, nil, nil)
}

// Verify checks an assignment against everything the scan promises. No two
// simultaneously live allocated values share a register (checked on the
// per-point live sets). With cons, every allocated value holds a register of
// its own class inside the class capacity — exactly its pin when
// pre-colored — and no spilled value holds one. And no value live across a
// call of spans holds a register that call clobbers. Forbid masks are not
// consulted.
func (s *Scratch) Verify(info *liveness.Info, allocated []bool, regOf []int, cons *Constraints, spans []CallSpan) error {
	f := info.F
	maxReg := -1
	for _, reg := range regOf {
		if reg > maxReg {
			maxReg = reg
		}
	}
	s.seen = grow(s.seen, maxReg+1)
	seen := s.seen
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
					f.NameOf(prev), f.NameOf(v), regOf[v], p.Block, p.Index)
			}
			seen[regOf[v]] = v
		}
		for _, v := range p.Live {
			if regOf[v] >= 0 {
				seen[regOf[v]] = -1
			}
		}
	}
	if cons != nil {
		for v, reg := range regOf {
			if reg == NoReg {
				continue
			}
			if !allocated[v] {
				return fmt.Errorf("regassign: spilled value %s holds %s", f.NameOf(v), ir.RegName(reg))
			}
			c := cons.classOf(v)
			if cons.indexIn(c, reg) < 0 {
				return fmt.Errorf("regassign: %s value %s assigned %s outside class capacity %d",
					c, f.NameOf(v), ir.RegName(reg), cons.Caps[c])
			}
			if pin := cons.pinOf(v); pin != NoReg && reg != pin {
				return fmt.Errorf("regassign: pre-colored value %s holds %s instead of %s",
					f.NameOf(v), ir.RegName(reg), ir.RegName(pin))
			}
		}
	}
	for i := range spans {
		span := &spans[i]
		for _, v := range span.Live {
			if allocated[v] && span.Clobbers(regOf[v]) {
				return fmt.Errorf("regassign: value %s holds caller-saved %s across a clobbering call",
					f.NameOf(v), ir.RegName(regOf[v]))
			}
		}
	}
	return nil
}
