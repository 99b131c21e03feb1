package regassign

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// insertSpillCodeClone is the clone-then-rewrite spill-code insertion the
// single-pass InsertSpillCode replaced, kept verbatim as the reference of
// TestInsertSpillCodeMatchesCloneOracle: it deep-copies f, rewrites every
// touched block into a second slab, and splices each phi-operand reload
// into its predecessor with an append.
func insertSpillCodeClone(f *ir.Func, spilled []bool) *ir.Func {
	g := f.Clone()
	anySpill := false
	for _, s := range spilled {
		if s {
			anySpill = true
			break
		}
	}
	if !anySpill {
		return g
	}
	if g.ValueName == nil {
		g.ValueName = make(map[int]string)
	}
	// Pre-size the rewrite: per block, one reload per spilled non-phi use
	// and one spill per spilled def (spills counts defs, so it is exact for
	// non-SSA functions with several defs per value too).
	extraOf := func(b *ir.Block) (extra, spills int) {
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpPhi {
				for _, u := range ins.Uses {
					if u < len(spilled) && spilled[u] {
						extra++
					}
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue &&
				ins.Def < len(spilled) && spilled[ins.Def] {
				extra++
				spills++
			}
		}
		return extra, spills
	}
	slabLen, nspills := 0, 0
	for _, b := range g.Blocks {
		if extra, spills := extraOf(b); extra > 0 {
			slabLen += len(b.Instrs) + extra
			nspills += spills
		}
	}
	slab := make([]ir.Instr, 0, slabLen)
	spillUses := make([]int, 0, nspills)
	for _, b := range g.Blocks {
		if extra, _ := extraOf(b); extra == 0 {
			continue
		}
		start := len(slab)
		// The clone owns its Uses storage, so reloads rewrite operands in
		// place instead of copying every instruction's use list.
		reloadAt := func(uses []int) {
			for k, u := range uses {
				if u < len(spilled) && spilled[u] {
					nv := g.NewValue()
					g.ValueName[nv] = g.NameOf(u) + ".r"
					// A reload temp lives in the spilled value's class (but
					// is never pinned: only the original def range keeps an
					// ABI color).
					g.SetClass(nv, g.ClassOf(u))
					slab = append(slab, ir.Instr{Op: ir.OpReload, Def: nv, Imm: int64(u)})
					uses[k] = nv
				}
			}
		}
		// Spills of phi defs must not interleave with the phi block: they
		// are collected and emitted right after the last phi.
		var phiSpills []ir.Instr
		phisDone := false
		for _, ins := range b.Instrs {
			if !phisDone && ins.Op != ir.OpPhi {
				phisDone = true
				slab = append(slab, phiSpills...)
				phiSpills = nil
			}
			switch {
			case ins.Op == ir.OpPhi:
				// Operand reloads belong in predecessors; handled below.
				slab = append(slab, ins)
			default:
				reloadAt(ins.Uses)
				slab = append(slab, ins)
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue &&
				ins.Def < len(spilled) && spilled[ins.Def] {
				spillUses = append(spillUses, ins.Def)
				sp := ir.Instr{Op: ir.OpSpill, Def: ir.NoValue,
					Uses: spillUses[len(spillUses)-1 : len(spillUses) : len(spillUses)]}
				if ins.Op == ir.OpPhi {
					phiSpills = append(phiSpills, sp)
				} else {
					slab = append(slab, sp)
				}
			}
		}
		slab = append(slab, phiSpills...)
		b.Instrs = slab[start:len(slab):len(slab)]
	}
	// Phi operand reloads: insert at the end of the predecessor (before its
	// terminator) and rewrite the operand.
	for _, b := range g.Blocks {
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			if ins.Op != ir.OpPhi {
				continue
			}
			for k, u := range ins.Uses {
				if u >= len(spilled) || !spilled[u] {
					continue
				}
				if k >= len(b.Preds) {
					continue
				}
				pred := g.Blocks[b.Preds[k]]
				nv := g.NewValue()
				g.ValueName[nv] = g.NameOf(u) + ".r"
				g.SetClass(nv, g.ClassOf(u))
				reload := ir.Instr{Op: ir.OpReload, Def: nv, Imm: int64(u)}
				ti := len(pred.Instrs) - 1 // terminator index
				pred.Instrs = append(pred.Instrs[:ti],
					append([]ir.Instr{reload}, pred.Instrs[ti:]...)...)
				ins.Uses[k] = nv
			}
		}
	}
	return g
}

// TestInsertSpillCodeMatchesCloneOracle differentially tests the single-pass
// rewrite against the clone-then-rewrite reference: 300 generated functions
// (SSA and not), constrained functions of every machine, a phi self-loop, a
// join whose predecessors each receive several phi-operand reloads, and the
// IR corpus, each under
// three spill masks — none, a random 30%, all — must rewrite to the same
// text, value count, value names, classes, pre-colors and loop depths, and
// ReloadSlots must read back the slot table the rewrite recorded.
func TestInsertSpillCodeMatchesCloneOracle(t *testing.T) {
	var funcs []*ir.Func
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, irgen.FromSeed(seed))
	}
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cons := m.Constraints(8)
		for seed := int64(0); seed < 40; seed++ {
			funcs = append(funcs, irgen.ConstrainedFromSeed(seed, cons))
		}
	}
	funcs = append(funcs, ir.MustParse(phiSelfLoopSrc), ir.MustParse(sharedPredSrc))
	files, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, ir.MustParse(string(src)))
	}
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	for _, f := range funcs {
		dom := f.ComputeDominance()
		f.ComputeLoops(dom)
		for _, mask := range []string{"none", "random", "all"} {
			spilled := make([]bool, f.NumValues)
			for v := range spilled {
				spilled[v] = mask == "all" || (mask == "random" && rng.Float64() < 0.3)
			}
			before := f.String()
			want := insertSpillCodeClone(f, spilled)
			got := s.InsertSpillCode(f, spilled)
			if f.String() != before {
				t.Fatalf("%s mask=%s: the rewrite modified its input", f.Name, mask)
			}
			if err := sameRewrite(got, want); err != nil {
				t.Fatalf("%s mask=%s: %v\ngot:\n%s\nwant:\n%s", f.Name, mask, err, got, want)
			}
			// A rewrite without reloads leaves the scratch's table as it was.
			slots := ReloadSlots(got, f.NumValues, nil)
			if len(slots) != got.NumValues-f.NumValues || len(slots) > 0 && !slices.Equal(slots, s.reloadSlot) {
				t.Fatalf("%s mask=%s: ReloadSlots %v, the rewrite recorded %v", f.Name, mask, slots, s.reloadSlot)
			}
			if pkg := InsertSpillCode(f, spilled); sameRewrite(pkg, want) != nil {
				t.Fatalf("%s mask=%s: package-level rewrite differs from the scratch one", f.Name, mask)
			}
		}
	}
}

// sameRewrite compares two rewritten functions on everything a client of
// the rewrite observes.
func sameRewrite(got, want *ir.Func) error {
	switch {
	case got.String() != want.String():
		return fmt.Errorf("text differs")
	case got.NumValues != want.NumValues:
		return fmt.Errorf("NumValues %d, want %d", got.NumValues, want.NumValues)
	case !reflect.DeepEqual(got.ValueName, want.ValueName):
		return fmt.Errorf("ValueName %v, want %v", got.ValueName, want.ValueName)
	case !reflect.DeepEqual(got.ValueClass, want.ValueClass):
		return fmt.Errorf("ValueClass %v, want %v", got.ValueClass, want.ValueClass)
	case !reflect.DeepEqual(got.PreColor, want.PreColor):
		return fmt.Errorf("PreColor %v, want %v", got.PreColor, want.PreColor)
	case len(got.Blocks) != len(want.Blocks):
		return fmt.Errorf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for i, b := range got.Blocks {
		if b.LoopDepth != want.Blocks[i].LoopDepth {
			return fmt.Errorf("block %s LoopDepth %d, want %d", b.Name, b.LoopDepth, want.Blocks[i].LoopDepth)
		}
	}
	return nil
}

// phiSelfLoopSrc: a loop header that is its own predecessor, so the phi
// operand reloads land in the block being rewritten; its terminator also
// uses spilled values, whose reloads precede the landed ones.
const phiSelfLoopSrc = `
func selfloop ssa {
b0:
  a = param 0
  b = param 1
  br b1
b1:
  x = phi [b0: a], [b1: y]
  z = phi [b0: b], [b1: x]
  y = arith x, z
  condbr y, b1, b2
b2:
  ret z
}`

// sharedPredSrc: several phis of one join read spilled values from the
// same predecessors, so each predecessor receives several reloads.
const sharedPredSrc = `
func sharedpred ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  condbr a, b1, b2
b1:
  d = arith a, b
  br b3
b2:
  e = arith b, c
  br b3
b3:
  p = phi [b1: a], [b2: b]
  q = phi [b1: d], [b2: e]
  r = phi [b1: c], [b2: a]
  s = arith p, q
  t = arith s, r
  ret t
}`
