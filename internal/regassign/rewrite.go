package regassign

import "repro/internal/ir"

// InsertSpillCode returns a copy of f with spill-everywhere code for the
// spilled values (f itself is not modified): a spill (store) is inserted
// right after each spilled definition, and every use is rewritten to a
// freshly reloaded value. Phi operands reload at the end of the predecessor
// block; spilled phi defs spill at the top of their block. The returned
// function is still strict SSA, with f's control flow.
//
// Reload temporaries are numbered from f.NumValues: first the reloads of
// ordinary uses in layout order, then those of phi operands in the layout
// order of the phis. Each is named "<slot>.r" after the value it reloads
// (see NameReloads) and takes that value's register class.
//
// The copy is built straight from f rather than cloned and then edited: a
// counting pass sizes it first, so its blocks, instructions and int lists
// (uses, targets, clobbers, CFG edges, spill operands) are carved from
// three exact-size slabs, the name map is sized once, and each reloaded
// slot's name is built once.
func InsertSpillCode(f *ir.Func, spilled []bool) *ir.Func {
	return new(Scratch).InsertSpillCode(f, spilled)
}

// InsertSpillCode is the package-level InsertSpillCode with its working
// tables on the scratch. The returned function shares no memory with the
// scratch.
func (s *Scratch) InsertSpillCode(f *ir.Func, spilled []bool) *ir.Func {
	isSpilled := func(v int) bool { return v < len(spilled) && spilled[v] }
	spillsDef := func(ins *ir.Instr) bool {
		return ins.Op.HasDef() && ins.Def != ir.NoValue && isSpilled(ins.Def)
	}
	anySpill := false
	for _, sp := range spilled {
		if sp {
			anySpill = true
			break
		}
	}
	if !anySpill {
		return f.Clone()
	}

	// Counting pass: slab sizes, the reload count of ordinary uses, and
	// how many phi-operand reloads land in each predecessor (land[p+1]).
	n := len(f.Blocks)
	s.land = grow(s.land, n+1)
	land := s.land
	clear(land)
	ninstr, nints, useReloads, phiReloads, classed := 0, 0, 0, 0, 0
	for _, b := range f.Blocks {
		ninstr += len(b.Instrs)
		nints += len(b.Preds) + len(b.Succs)
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			nints += len(ins.Uses) + len(ins.Targets) + len(ins.Clobbers)
			for k, u := range ins.Uses {
				if !isSpilled(u) {
					continue
				}
				if ins.Op != ir.OpPhi {
					useReloads++
				} else if k < len(b.Preds) {
					phiReloads++
					land[b.Preds[k]+1]++
				} else {
					continue
				}
				if f.ClassOf(u) != ir.ClassGPR {
					classed++
				}
			}
			if spillsDef(ins) {
				ninstr++
				nints++ // the spill's operand
			}
		}
	}
	reloads := useReloads + phiReloads
	ninstr += reloads

	// Phi-operand reloads, grouped by the predecessor they land in, in
	// (phi block, phi, operand) order: predecessor p's are the slots
	// landSlot[land[p]:land[p+1]], reloading into landDef — values numbered
	// from f.NumValues+useReloads on, in that same order.
	for p := 0; p < n; p++ {
		land[p+1] += land[p]
	}
	s.landSlot = grow(s.landSlot, phiReloads)
	s.landDef = grow(s.landDef, phiReloads)
	s.fill = grow(s.fill, n)
	fill := s.fill
	copy(fill, land[:n])
	next := f.NumValues + useReloads
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Op != ir.OpPhi {
				continue
			}
			for k, u := range ins.Uses {
				if k < len(b.Preds) && isSpilled(u) {
					p := b.Preds[k]
					s.landSlot[fill[p]], s.landDef[fill[p]] = u, next
					fill[p]++
					next++
				}
			}
		}
	}

	g := &ir.Func{Name: f.Name, NumValues: f.NumValues + reloads, SSA: f.SSA}
	if f.ValueClass != nil || classed > 0 {
		g.ValueClass = make(map[int]ir.Class, len(f.ValueClass)+classed)
		for k, v := range f.ValueClass {
			g.ValueClass[k] = v
		}
	}
	if f.PreColor != nil {
		g.PreColor = make(map[int]int, len(f.PreColor))
		for k, v := range f.PreColor {
			g.PreColor[k] = v
		}
	}
	ints := make([]int, 0, nints)
	carve := func(src []int) []int {
		if len(src) == 0 {
			return src // preserve nil-ness and empty slices as-is
		}
		start := len(ints)
		ints = append(ints, src...)
		return ints[start:len(ints):len(ints)]
	}
	instrs := make([]ir.Instr, 0, ninstr)
	// reload appends the reload of slot into the new value def, which
	// takes the slot's class (but never its pin: only the original def
	// range keeps an ABI color).
	reload := func(slot, def int) {
		if c := f.ClassOf(slot); c != ir.ClassGPR {
			g.ValueClass[def] = c
		}
		instrs = append(instrs, ir.Instr{Op: ir.OpReload, Def: def, Imm: int64(slot)})
	}
	spill := func(v int) {
		ints = append(ints, v)
		instrs = append(instrs, ir.Instr{Op: ir.OpSpill, Def: ir.NoValue,
			Uses: ints[len(ints)-1 : len(ints) : len(ints)]})
	}
	blocks := make([]ir.Block, n)
	g.Blocks = make([]*ir.Block, n)
	useNext, phiNext := f.NumValues, f.NumValues+useReloads
	for bi, b := range f.Blocks {
		nb := &blocks[bi]
		*nb = ir.Block{ID: b.ID, Name: b.Name, Preds: carve(b.Preds), Succs: carve(b.Succs),
			LoopDepth: b.LoopDepth}
		g.Blocks[bi] = nb
		start := len(instrs)
		// Spills of the leading phis' defs follow the last of them; those of
		// any later (misplaced) phi close the block.
		lead := len(b.Instrs)
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpPhi {
				lead = i
				break
			}
		}
		spillPhis := func(from, to int) {
			for j := from; j < to; j++ {
				if ins := &b.Instrs[j]; ins.Op == ir.OpPhi && spillsDef(ins) {
					spill(ins.Def)
				}
			}
		}
		for i := range b.Instrs {
			if i == lead {
				spillPhis(0, lead)
			}
			ins := b.Instrs[i]
			ins.Uses = carve(ins.Uses)
			ins.Targets = carve(ins.Targets)
			ins.Clobbers = carve(ins.Clobbers)
			for k, u := range ins.Uses {
				switch {
				case !isSpilled(u):
				case ins.Op != ir.OpPhi:
					reload(u, useNext)
					ins.Uses[k] = useNext
					useNext++
				case k < len(b.Preds):
					// Reloaded at the end of the predecessor (below).
					ins.Uses[k] = phiNext
					phiNext++
				}
			}
			instrs = append(instrs, ins)
			if ins.Op != ir.OpPhi && spillsDef(&ins) {
				spill(ins.Def)
			}
		}
		if lead == len(b.Instrs) {
			spillPhis(0, lead)
		} else {
			spillPhis(lead+1, len(b.Instrs))
		}
		// Phi-operand reloads landing here go right before the block's last
		// instruction (its terminator).
		if lo, hi := land[bi], land[bi+1]; hi > lo {
			var last ir.Instr
			hasLast := len(instrs) > start
			if hasLast {
				last = instrs[len(instrs)-1]
				instrs = instrs[:len(instrs)-1]
			}
			for j := lo; j < hi; j++ {
				reload(s.landSlot[j], s.landDef[j])
			}
			if hasLast {
				instrs = append(instrs, last)
			}
		}
		nb.Instrs = instrs[start:len(instrs):len(instrs)]
	}
	s.names = NameReloads(g, f, s.names)
	return g
}

// NameReloads gives g — a spill-code rewrite of f whose reload temporaries
// are the values from f.NumValues on — its value names: f's, plus
// "<slot>.r" for every temporary, after f's name of the slot it reloads.
// This is the one naming rule of reload temporaries; the outcome cache
// re-binds cached rewrites through it too. The map is sized exactly, and
// each slot's name is built once, in slotNames: value-indexed reusable
// memory (nil allocates it), returned for the next call.
func NameReloads(g, f *ir.Func, slotNames []string) []string {
	base := f.NumValues
	g.ValueName = make(map[int]string, len(f.ValueName)+g.NumValues-base)
	for k, v := range f.ValueName {
		g.ValueName[k] = v
	}
	if g.NumValues == base {
		return slotNames
	}
	slotNames = grow(slotNames, base)
	clear(slotNames)
	var buf [64]byte
	name := func(slot int) string {
		return string(append(f.AppendName(buf[:0], slot), ".r"...))
	}
	for _, b := range g.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Op != ir.OpReload || ins.Def < base {
				continue
			}
			slot := int(ins.Imm)
			if slot < 0 || slot >= base {
				g.ValueName[ins.Def] = name(slot)
				continue
			}
			if slotNames[slot] == "" {
				slotNames[slot] = name(slot)
			}
			g.ValueName[ins.Def] = slotNames[slot]
		}
	}
	return slotNames
}

// grow returns s with length n, reusing its memory when large enough; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
