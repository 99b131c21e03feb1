// Package spillcost estimates per-variable spill costs, following the
// paper's methodology (§6.1.1): the cost of a variable is the sum, over the
// basic blocks that access it, of the block's execution frequency times the
// number of accesses in that block. Block frequency is the standard static
// estimate base^loop-depth.
package spillcost

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Model controls the cost estimate.
//
// Zero-value semantics: a wholly-zero Model means DefaultModel, so
// `core.Config{}`-style zero values keep working — but a *partially* zero
// model is taken verbatim. Model{LoopBase: 10, StoreFactor: 0} really means
// "stores are free" and Model{LoopBase: 0, StoreFactor: 1} really means
// "loop bodies count like straight-line code"; neither is silently
// rewritten to the defaults. Use NewModel to construct explicit models.
type Model struct {
	// LoopBase is the assumed trip-count factor per loop level (default 10).
	LoopBase float64
	// StoreFactor scales the cost contribution of the definition (the
	// store of a spilled variable) relative to a use (a load). Default 1.
	StoreFactor float64
	// explicit marks models built by NewModel, which are always taken
	// verbatim — even wholly zero.
	explicit bool
}

// DefaultModel is the paper-faithful configuration.
var DefaultModel = Model{LoopBase: 10, StoreFactor: 1}

// NewModel returns the explicit model (loopBase, storeFactor), taken
// verbatim with no zero-value defaulting at all: NewModel(0, 0) really
// charges nothing for loop bodies or stores, unlike the literal Model{}.
func NewModel(loopBase, storeFactor float64) Model {
	return Model{LoopBase: loopBase, StoreFactor: storeFactor, explicit: true}
}

// normalize resolves the zero-value convention: only the wholly-zero
// non-explicit model defaults.
func (m Model) normalize() Model {
	if m == (Model{}) {
		return DefaultModel
	}
	return m
}

// Params returns the effective (loopBase, storeFactor) pair after
// zero-value normalization — the canonical form of the model, under which
// Model{} and DefaultModel compare equal. Cache keys and config
// fingerprints fold these instead of the raw struct.
func (m Model) Params() (loopBase, storeFactor float64) {
	m = m.normalize()
	return m.LoopBase, m.StoreFactor
}

// Validate rejects models the estimate is meaningless for (negative
// factors). The pipeline driver calls it before costing.
func (m Model) Validate() error {
	m = m.normalize()
	if m.LoopBase < 0 || math.IsNaN(m.LoopBase) || math.IsInf(m.LoopBase, 0) {
		return fmt.Errorf("spillcost: LoopBase %g must be a finite non-negative number", m.LoopBase)
	}
	if m.StoreFactor < 0 || math.IsNaN(m.StoreFactor) || math.IsInf(m.StoreFactor, 0) {
		return fmt.Errorf("spillcost: StoreFactor %g must be a finite non-negative number", m.StoreFactor)
	}
	return nil
}

// Costs returns the spill cost of every value of f (indexed by value ID).
// Values never accessed get cost 0 — and under StoreFactor 0, so do values
// that are defined but never used.
func Costs(f *ir.Func, m Model) []float64 {
	return CostsInto(nil, f, m)
}

// CostsInto is Costs with a caller-provided buffer: dst is resized to
// f.NumValues (reallocating only when its capacity is too small), zeroed
// and filled. The batch pipeline's per-worker Runner feeds its scratch
// buffer through here, so steady-state allocation costs no cost-vector
// allocation per function — BuildProblem copies the costs it keeps, so the
// buffer never escapes into an Outcome.
func CostsInto(dst []float64, f *ir.Func, m Model) []float64 {
	return CostsAt(dst, f, m, nil)
}

// CostsAt is CostsInto with block b at loop depth depth[b] instead of its
// Block.LoopDepth (a nil depth reads Block.LoopDepth): the pipeline keeps
// the loop analysis of a function it allocates to itself rather than
// writing it into the caller's blocks.
func CostsAt(dst []float64, f *ir.Func, m Model, depth []int) []float64 {
	m = m.normalize()
	depthOf := func(b *ir.Block) int {
		if depth == nil {
			return b.LoopDepth
		}
		return depth[b.ID]
	}
	cost := dst
	if cap(cost) < f.NumValues {
		cost = make([]float64, f.NumValues)
	} else {
		cost = cost[:f.NumValues]
		for i := range cost {
			cost[i] = 0
		}
	}
	for _, b := range f.Blocks {
		freq := math.Pow(m.LoopBase, float64(depthOf(b)))
		for _, ins := range b.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				cost[ins.Def] += m.StoreFactor * freq
			}
			for k, u := range ins.Uses {
				if ins.Op == ir.OpPhi {
					// A phi use is a move on the incoming edge: charge it
					// at the predecessor's frequency. A malformed phi (more
					// operands than predecessors — ir.Validate rejects it,
					// but cost estimation must not rely on that) charges at
					// the phi's own block instead of silently dropping the
					// access.
					if k < len(b.Preds) {
						p := f.Blocks[b.Preds[k]]
						cost[u] += math.Pow(m.LoopBase, float64(depthOf(p)))
					} else {
						cost[u] += freq
					}
					continue
				}
				cost[u] += freq
			}
		}
	}
	return cost
}

// BlockFrequencies returns the static frequency estimate of every block.
func BlockFrequencies(f *ir.Func, m Model) []float64 {
	return FrequenciesAt(nil, f, m, nil)
}

// FrequenciesAt is BlockFrequencies into dst (resized to the block count,
// reallocating only when too small), with block b at loop depth depth[b]
// (a nil depth reads Block.LoopDepth).
func FrequenciesAt(dst []float64, f *ir.Func, m Model, depth []int) []float64 {
	m = m.normalize()
	if cap(dst) < len(f.Blocks) {
		dst = make([]float64, len(f.Blocks))
	}
	dst = dst[:len(f.Blocks)]
	for i, b := range f.Blocks {
		d := b.LoopDepth
		if depth != nil {
			d = depth[b.ID]
		}
		dst[i] = math.Pow(m.LoopBase, float64(d))
	}
	return dst
}
