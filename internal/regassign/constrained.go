package regassign

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// Constraints is the machine input of the constrained tree-scan for one
// function. The slices are indexed by value ID and span f.NumValues.
type Constraints struct {
	// Caps is the register count of each class (at most 64).
	Caps [ir.NumClasses]int
	// Class is the register class of every value.
	Class []ir.Class
	// Pins is the fixed register (a RegRef) of every pre-colored value, and
	// NoReg for the others.
	Pins []int
	// Forbid is every value's mask of banned within-class register indexes
	// (bit i set = index i banned); the driver encodes call-clobber
	// avoidance and pin reservations there.
	Forbid []uint64
}

// Stuck describes where a constrained scan gave up: the value that found no
// register, the block it was scanning, and the pin that was unavailable
// (NoReg when the value is unpinned and every admissible register was
// taken). Val is -1 when the scan succeeded.
type Stuck struct {
	Val, Block int
	Class      ir.Class
	Pin        int
}

// Err formats the failure.
func (s Stuck) Err(f *ir.Func) error {
	if s.Pin != NoReg {
		return fmt.Errorf("regassign: pre-color %s of %s unavailable in %s",
			ir.RegName(s.Pin), f.NameOf(s.Val), f.Blocks[s.Block].Name)
	}
	return fmt.Errorf("regassign: no admissible %s register for %s in %s",
		s.Class, f.NameOf(s.Val), f.Blocks[s.Block].Name)
}

// AssignConstrained is the machine-honoring tree-scan: every allocated value
// gets a register of its own class (a RegRef), pre-colored values get
// exactly their pin, and each value avoids the registers in its forbid
// mask. It writes the assignment into regOf (length f.NumValues, NoReg for
// values without a register) and runs on the scratch's stamp arrays, the
// same ones the unconstrained scan uses.
//
// With a bias, a value whose affinity class already converged on a register
// takes it when it is of the value's own class, inside the class capacity,
// free, and not in the value's forbid mask — otherwise the scan falls back
// to the lowest admissible choice. Pins always win (and seed the class hint,
// so copy chains rooted at an ABI register chase the pin). A nil bias gives
// the unbiased assignment.
//
// Unlike the unconstrained scan, constraints can make the greedy choice
// infeasible even at legal pressure: the returned Stuck then names the value
// that found no register, so the driver can force-spill it and retry (always
// sound under spill-everywhere, and bounded by the value count), and regOf
// holds a partial assignment. The error reports inputs the scan cannot run
// on at all.
func (s *Scratch) AssignConstrained(f *ir.Func, dom *ir.Dominance, info *liveness.Info,
	allocated []bool, cons *Constraints, bias *Bias, regOf []int) (Stuck, error) {
	if !f.SSA {
		return Stuck{Val: -1}, fmt.Errorf("regassign: tree-scan requires strict SSA")
	}
	caps := &cons.Caps
	for _, c := range caps {
		if c > 64 {
			return Stuck{Val: -1}, fmt.Errorf("regassign: constrained assignment supports at most 64 registers per class, got %d", c)
		}
	}
	s.resize(f.NumValues, 0)
	for i := range regOf {
		regOf[i] = NoReg
	}
	class, pins, forbid := cons.Class, cons.Pins, cons.Forbid
	// Per-class register files as bitmasks (bit i = index i in use).
	var inUse [ir.NumClasses]uint64
	release := func(v int) {
		if reg := regOf[v]; reg != NoReg {
			inUse[ir.RegClassOf(reg)] &^= 1 << uint(ir.RegIndexOf(reg))
		}
	}
	// assign colours v and reports whether it found a register.
	assign := func(v int) bool {
		if regOf[v] != NoReg {
			return true
		}
		c := class[v]
		cls := bias.classOf(v)
		if pin := pins[v]; pin != NoReg {
			idx := ir.RegIndexOf(pin)
			if ir.RegClassOf(pin) != c || idx >= caps[c] || inUse[c]&(1<<uint(idx)) != 0 {
				return false
			}
			regOf[v] = pin
			inUse[c] |= 1 << uint(idx)
			if bias != nil {
				bias.record(cls, pin)
			}
			return true
		}
		free := ^(inUse[c] | forbid[v])
		if cls >= 0 {
			if h := bias.hintOf(cls); h != NoReg && ir.RegClassOf(int(h)) == c {
				if idx := ir.RegIndexOf(int(h)); idx < caps[c] && free&(1<<uint(idx)) != 0 {
					regOf[v] = int(h)
					inUse[c] |= 1 << uint(idx)
					return true
				}
			}
		}
		for idx := 0; idx < caps[c]; idx++ {
			if free&(1<<uint(idx)) != 0 {
				regOf[v] = ir.MakeReg(c, idx)
				inUse[c] |= 1 << uint(idx)
				if bias != nil {
					bias.record(cls, ir.MakeReg(c, idx))
				}
				return true
			}
		}
		return false
	}
	stuck := func(v, bid int) Stuck {
		return Stuck{Val: v, Block: bid, Class: class[v], Pin: pins[v]}
	}

	// Preorder over the dominator tree; children pop in Children order.
	s.blocks = append(s.blocks[:0], 0)
	for len(s.blocks) > 0 {
		bid := s.blocks[len(s.blocks)-1]
		s.blocks = s.blocks[:len(s.blocks)-1]
		b := f.Blocks[bid]
		if s.epoch == math.MaxInt32 {
			clear(s.liveOutAt[:cap(s.liveOutAt)])
			clear(s.lastUseAt[:cap(s.lastUseAt)])
			s.epoch = 0
		}
		s.epoch++
		epoch := s.epoch
		// The register file is rebuilt per block from the allocated live-in
		// values (their defs dominate this block, so they are colored).
		inUse = [ir.NumClasses]uint64{}
		for _, v := range info.LiveIn[bid] {
			if allocated[v] && regOf[v] != NoReg {
				inUse[ir.RegClassOf(regOf[v])] |= 1 << uint(ir.RegIndexOf(regOf[v]))
			}
		}
		for _, v := range info.LiveOut[bid] {
			s.liveOutAt[v] = epoch
		}
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
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			if allocated[ins.Def] && !assign(ins.Def) {
				return stuck(ins.Def, bid), nil
			}
		}
		// Dead phi defs occupy a register only at the block boundary.
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
			for _, u := range ins.Uses {
				if s.lastUseAt[u] == epoch && s.lastUse[u] == int32(i) && allocated[u] {
					release(u)
				}
			}
			if d := ins.Def; ins.Op.HasDef() && d != ir.NoValue && allocated[d] {
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

// VerifyClassAssignment checks the class-and-pin half of a constrained
// assignment: every allocated value holds a register of its own class with
// an index inside the class capacity, and pre-colored values hold exactly
// their pin. Interference freedom is VerifyAssignment's job (RegRefs are
// plain ints, so it applies unchanged); clobber avoidance is checked by the
// constrained driver, which knows the call spans. Forbid masks are not
// consulted.
func VerifyClassAssignment(f *ir.Func, allocated []bool, regOf []int, cons *Constraints) error {
	for v, reg := range regOf {
		if reg == NoReg {
			continue
		}
		if !allocated[v] {
			return fmt.Errorf("regassign: spilled value %s holds %s", f.NameOf(v), ir.RegName(reg))
		}
		c := cons.Class[v]
		if ir.RegClassOf(reg) != c {
			return fmt.Errorf("regassign: %s value %s assigned %s", c, f.NameOf(v), ir.RegName(reg))
		}
		if idx := ir.RegIndexOf(reg); idx >= cons.Caps[c] {
			return fmt.Errorf("regassign: %s assigned %s outside class capacity %d",
				f.NameOf(v), ir.RegName(reg), cons.Caps[c])
		}
		if pin := cons.Pins[v]; pin != NoReg && reg != pin {
			return fmt.Errorf("regassign: pre-colored value %s holds %s instead of %s",
				f.NameOf(v), ir.RegName(reg), ir.RegName(pin))
		}
	}
	return nil
}

// CallSpan is one clobbering call with a nonempty live-through set.
type CallSpan struct {
	// Block and Index locate the call instruction.
	Block, Index int
	// Clobbered holds the call's clobbered register indexes as one bitmask
	// per class.
	Clobbered [ir.NumClasses]uint64
	// Live lists, ascending, the values live both before and after the call.
	Live []int
}

// Clobbers reports whether the call destroys register reg (a RegRef).
func (c *CallSpan) Clobbers(reg int) bool {
	return reg != NoReg && c.Clobbered[ir.RegClassOf(reg)]&(1<<uint(ir.RegIndexOf(reg))) != 0
}

// LiveThroughCalls returns the clobbering calls of a function with the
// values live across each, in program order (block, then instruction). A
// value in a call's Live set that is assigned a register the call clobbers
// loses its content — the exact miscompile the clobber checks exist to
// catch.
func LiveThroughCalls(info *liveness.Info) []CallSpan {
	return NewScratch().LiveThroughCalls(info)
}

// LiveThroughCalls is the package-level LiveThroughCalls on the scratch's
// memory: the spans and their Live sets stay valid until the scratch
// computes spans again.
func (s *Scratch) LiveThroughCalls(info *liveness.Info) []CallSpan {
	f := info.F
	points := info.Points
	// First point of every block: the points of a block are contiguous and
	// ordered by instruction index, and the first point carrying an index is
	// that instruction's live-before set (a dead definition's instant
	// follows it with the same index).
	if cap(s.firstPoint) < len(f.Blocks) {
		s.firstPoint = make([]int, len(f.Blocks))
	}
	first := s.firstPoint[:len(f.Blocks)]
	for i := range first {
		first[i] = -1
	}
	for pi := len(points) - 1; pi >= 0; pi-- {
		first[points[pi].Block] = pi
	}
	// before returns the live-before point of instruction i of block bid,
	// scanning forward from *pi, or -1 when the block has none.
	before := func(bid, i int, pi *int) int {
		for *pi < len(points) && points[*pi].Block == bid && points[*pi].Index < i {
			*pi++
		}
		if *pi < len(points) && points[*pi].Block == bid && points[*pi].Index == i {
			return *pi
		}
		return -1
	}
	spans, slab := s.spans[:0], s.spanLive[:0]
	for _, b := range f.Blocks {
		pi := first[b.ID]
		if pi < 0 {
			continue // unreachable block: no points, nothing live
		}
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Op != ir.OpCall || len(ins.Clobbers) == 0 {
				continue
			}
			bi := before(b.ID, i, &pi)
			if bi < 0 {
				continue
			}
			ai := before(b.ID, i+1, &pi)
			if ai < 0 {
				continue
			}
			liveB, liveA := points[bi].Live, points[ai].Live
			// Both sorted ascending: intersect linearly.
			start := len(slab)
			x, y := 0, 0
			for x < len(liveB) && y < len(liveA) {
				switch {
				case liveB[x] < liveA[y]:
					x++
				case liveB[x] > liveA[y]:
					y++
				default:
					slab = append(slab, liveB[x])
					x++
					y++
				}
			}
			if len(slab) == start {
				continue
			}
			span := CallSpan{Block: b.ID, Index: i, Live: slab[start:len(slab):len(slab)]}
			for _, ref := range ins.Clobbers {
				span.Clobbered[ir.RegClassOf(ref)] |= 1 << uint(ir.RegIndexOf(ref))
			}
			spans = append(spans, span)
		}
	}
	s.spans, s.spanLive = spans, slab
	return spans
}
