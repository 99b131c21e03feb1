package ir

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/raerr"
)

// Validate checks structural invariants of the function and, when f.SSA is
// set, strict SSA form (single definitions, definitions dominating uses).
// It returns a joined error describing every violation found.
func (f *Func) Validate() error {
	_, err := f.ValidateAnalyzed()
	return err
}

// ValidateAnalyzed is Validate, but it also returns the dominance tree it
// computed along the way (nil when the function is structurally invalid),
// so pipeline drivers validating every input anyway don't compute dominance
// twice per function.
func (f *Func) ValidateAnalyzed() (*Dominance, error) {
	return new(Scratch).ValidateAnalyzed(f)
}

// ValidateAnalyzed is the package-level ValidateAnalyzed on the scratch's
// memory: the returned dominance tree is valid until the scratch's next
// call.
func (s *Scratch) ValidateAnalyzed(f *Func) (*Dominance, error) {
	if err := f.checkStructure(); err != nil {
		return nil, err
	}
	// The structure is sound, so dominance is computable.
	dom := s.dominance(f)
	return dom, s.checkSSA(f, dom)
}

// ValidateRewrite validates g, a rewrite of f that keeps f's control flow
// (the spill-code rewrite only inserts instructions inside blocks), as
// thoroughly as Validate would. Dominance depends on the block count and
// the predecessor and successor lists alone, so when those of g equal f's,
// g's strict-SSA form is checked against dom — f's dominance tree — instead
// of a recomputed one; any other g is validated from scratch.
func (s *Scratch) ValidateRewrite(g, f *Func, dom *Dominance) error {
	if !sameCFG(g, f) {
		_, err := new(Scratch).ValidateAnalyzed(g)
		return err
	}
	if err := g.checkStructure(); err != nil {
		return err
	}
	return s.checkSSA(g, dom)
}

// sameCFG reports whether g and f have the same blocks, predecessor lists
// and successor lists.
func sameCFG(g, f *Func) bool {
	if len(g.Blocks) != len(f.Blocks) {
		return false
	}
	for i, b := range g.Blocks {
		fb := f.Blocks[i]
		if !slices.Equal(b.Preds, fb.Preds) || !slices.Equal(b.Succs, fb.Succs) {
			return false
		}
	}
	return true
}

// checkSSA validates the strict-SSA claim of f, if it makes one, against
// its dominance tree dom.
func (s *Scratch) checkSSA(f *Func, dom *Dominance) error {
	if !f.SSA {
		return nil
	}
	if err := s.validateSSA(f, dom); err != nil {
		// Tag SSA-form violations so clients can dispatch on them with
		// errors.Is(err, raerr.ErrNotSSA) across the whole stack.
		return errors.Join(fmt.Errorf("%w: %w", raerr.ErrNotSSA, err))
	}
	return nil
}

// checkStructure reports every structural violation of f, joined: block
// numbering, terminators, phi placement and arity, def/use ranges, clobbers,
// CFG edge consistency, class and pre-color annotations.
func (f *Func) checkStructure() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if len(f.Blocks) == 0 {
		return errors.New("ir: function has no blocks")
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			report("ir: block %q has ID %d at index %d", b.Name, b.ID, i)
		}
		term := b.Terminator()
		if term == nil {
			report("ir: block %s does not end in a terminator", b.Name)
			continue
		}
		for j, ins := range b.Instrs {
			if ins.Op.IsTerminator() && j != len(b.Instrs)-1 {
				report("ir: block %s has terminator %s mid-block at %d", b.Name, ins.Op, j)
			}
			if ins.Op == OpPhi {
				if j > 0 && b.Instrs[j-1].Op != OpPhi {
					report("ir: block %s phi at %d after non-phi", b.Name, j)
				}
				if len(ins.Uses) != len(b.Preds) {
					report("ir: block %s phi has %d operands for %d predecessors",
						b.Name, len(ins.Uses), len(b.Preds))
				}
				if !f.SSA {
					report("ir: non-SSA function contains phi in block %s", b.Name)
				}
			}
			if ins.Op.HasDef() {
				if ins.Def == NoValue {
					report("ir: %s in block %s lacks a def", ins.Op, b.Name)
				} else if ins.Def < 0 || ins.Def >= f.NumValues {
					report("ir: def %d out of range in block %s", ins.Def, b.Name)
				}
			} else if ins.Def != NoValue {
				report("ir: %s in block %s must not define a value", ins.Op, b.Name)
			}
			for _, u := range ins.Uses {
				if u < 0 || u >= f.NumValues {
					report("ir: use %d out of range in block %s", u, b.Name)
				}
			}
			if ins.Op == OpReload && ins.Imm >= int64(f.NumValues) {
				report("ir: reload slot %d out of range in block %s", ins.Imm, b.Name)
			}
			if len(ins.Clobbers) > 0 {
				if ins.Op != OpCall {
					report("ir: %s in block %s carries clobbers (calls only)", ins.Op, b.Name)
				}
				for _, ref := range ins.Clobbers {
					if !validRegRef(ref) {
						report("ir: clobber ref %d out of range in block %s", ref, b.Name)
					}
				}
			}
		}
		// Terminator targets must agree with CFG successor lists.
		var targets []int
		if term != nil {
			targets = term.Targets
		}
		if len(targets) != len(b.Succs) {
			report("ir: block %s terminator has %d targets but %d successors",
				b.Name, len(targets), len(b.Succs))
		} else {
			for k, t := range targets {
				if t != b.Succs[k] {
					report("ir: block %s target %d is b%d but successor list says b%d",
						b.Name, k, t, b.Succs[k])
				}
			}
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				report("ir: block %s successor %d out of range", b.Name, s)
				continue
			}
			if !containsInt(f.Blocks[s].Preds, b.ID) {
				report("ir: edge %s→%s missing from predecessor list", b.Name, f.Blocks[s].Name)
			}
		}
	}
	for v, c := range f.ValueClass {
		if v < 0 || v >= f.NumValues {
			report("ir: class annotation on out-of-range value %d", v)
		}
		if c < 0 || c >= NumClasses {
			report("ir: value %s has invalid class %d", f.NameOf(v), int(c))
		}
	}
	for v, ref := range f.PreColor {
		if v < 0 || v >= f.NumValues {
			report("ir: pre-color on out-of-range value %d", v)
			continue
		}
		if !validRegRef(ref) {
			report("ir: value %s pre-colored to invalid register ref %d", f.NameOf(v), ref)
			continue
		}
		if RegClassOf(ref) != f.ClassOf(v) {
			report("ir: value %s (class %s) pre-colored to %s of class %s",
				f.NameOf(v), f.ClassOf(v), RegName(ref), RegClassOf(ref))
		}
	}
	return errors.Join(errs...)
}

func (s *Scratch) validateSSA(f *Func, dom *Dominance) error {
	var errs []error
	// Inline single-definition bookkeeping (Defs would allocate per-value
	// site lists; this is the per-function hot path of the batch pipeline).
	// A value is defined when it has exactly one definition.
	s.defSite = grow(s.defSite, f.NumValues)
	s.defCount = grow(s.defCount, f.NumValues)
	defSite, defCount := s.defSite, s.defCount
	clear(defCount)
	for _, b := range f.Blocks {
		for i, ins := range b.Instrs {
			if !ins.Op.HasDef() || ins.Def == NoValue {
				continue
			}
			if defCount[ins.Def] == 0 {
				defSite[ins.Def] = DefSite{Block: b.ID, Index: i}
			}
			defCount[ins.Def]++
		}
	}
	for v, c := range defCount {
		if c > 1 {
			errs = append(errs, fmt.Errorf("ir: value %s defined %d times", f.NameOf(v), c))
		}
	}
	defined := func(v int) bool { return defCount[v] == 1 }
	dominatesUse := func(v int, useBlock, useIndex int) bool {
		ds := defSite[v]
		if ds.Block == useBlock {
			return ds.Index < useIndex
		}
		return dom.Dominates(ds.Block, useBlock)
	}
	for _, b := range f.Blocks {
		if dom.Order[b.ID] < 0 {
			continue // unreachable code is not subject to dominance checking
		}
		for i, ins := range b.Instrs {
			if ins.Op == OpPhi {
				for k, u := range ins.Uses {
					if !defined(u) {
						errs = append(errs, fmt.Errorf("ir: phi in %s uses undefined %s", b.Name, f.NameOf(u)))
						continue
					}
					if k >= len(b.Preds) {
						continue // arity error already reported
					}
					p := b.Preds[k]
					ds := defSite[u]
					if !(ds.Block == p || dom.Dominates(ds.Block, p)) {
						errs = append(errs, fmt.Errorf(
							"ir: phi operand %s in %s not available on edge from %s",
							f.NameOf(u), b.Name, f.Blocks[p].Name))
					}
				}
				continue
			}
			for _, u := range ins.Uses {
				if !defined(u) {
					errs = append(errs, fmt.Errorf("ir: %s in %s uses undefined %s", ins.Op, b.Name, f.NameOf(u)))
					continue
				}
				if !dominatesUse(u, b.ID, i) {
					errs = append(errs, fmt.Errorf(
						"ir: use of %s in %s not dominated by its definition",
						f.NameOf(u), b.Name))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// validRegRef reports whether ref encodes a register of a known class with
// an in-stride index.
func validRegRef(ref int) bool {
	return ref >= 0 && ref < int(NumClasses)*RegStride
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
