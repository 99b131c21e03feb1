package outcache

import (
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/regassign"
)

// Entry is one cached allocation outcome in canonical, name-agnostic form:
// every decision-level product of a pipeline run (spill set, costs,
// register assignment, rewritten body) deep-copied away from the producing
// run, with all naming stripped. Materialize re-binds an Entry to a
// structurally identical requesting function, so one Entry serves every
// alpha-renamed copy of the code it was computed for.
//
// Entries are immutable after construction and therefore safe to share
// between cache shards, module revisions and goroutines.
type Entry struct {
	allocator string
	r         int
	chordal   bool
	weight    []float64
	vertexOf  []int
	valueOf   []int
	allocated []bool
	spilled   []int
	spillCost float64
	maxLive   int

	registerOf []int
	// coalesce is the biased-assignment move report, nil when coalescing was
	// off. Move costs are structural (block frequencies), so they transfer
	// across alpha-renamed copies like every other decision-level field.
	coalesce *coalesce.Stats
	// rewritten is the spill-code-rewritten body with names stripped
	// (function name, block names, ValueName); nil when the run skipped
	// rewriting. Value IDs are structural, so they transfer as-is.
	rewritten *ir.Func
	// baseValues is NumValues of the original input function; rewritten
	// value IDs ≥ baseValues are reload temporaries introduced by the
	// spill rewrite, and reloadSlot[i] is the slot value baseValues+i
	// reloads.
	baseValues int
	reloadSlot []int
	bytes      int64
}

// NewEntry deep-copies out into a cache entry. Outcomes are decision-level
// (no interference graph, clique structure or live sets), which is what
// keeps a hit at ~hash+copy cost.
func NewEntry(out *core.Outcome) *Entry {
	ints := newIntSlab(out.VertexOf, out.ValueOf, out.SpilledValues, out.RegisterOf)
	e := &Entry{
		allocator:  out.Result.Allocator,
		r:          out.Problem.R,
		chordal:    out.Problem.Chordal,
		weight:     cloneFloats(out.Problem.Weight),
		vertexOf:   ints.clone(out.VertexOf),
		valueOf:    ints.clone(out.ValueOf),
		allocated:  cloneBools(out.Result.Allocated),
		spilled:    ints.clone(out.SpilledValues),
		spillCost:  out.SpillCost,
		maxLive:    out.MaxLive,
		registerOf: ints.clone(out.RegisterOf),
		baseValues: out.F.NumValues,
	}
	if out.Coalesce != nil {
		st := *out.Coalesce
		e.coalesce = &st
	}
	if out.Rewritten != nil {
		g := out.Rewritten.Clone()
		g.Name = ""
		g.ValueName = nil
		for _, b := range g.Blocks {
			b.Name = ""
		}
		e.reloadSlot = regassign.ReloadSlots(g, e.baseValues, nil)
		e.rewritten = g
	}
	e.bytes = e.size()
	return e
}

// Materialize builds a fresh Outcome for f from the entry: every slice is
// copied (a hit receiver owns its outcome outright — mutating it cannot
// poison the cache) and all naming is re-bound to f, so a hit is
// byte-identical to what a full run on f would have produced. The returned
// outcome has the shape of a run's: a decision-level Problem (weights, R,
// chordality) and no analysis structures. The Outcome, its Problem and its
// Result are one allocation, and VertexOf, ValueOf, SpilledValues and
// RegisterOf are capacity-clipped parts of one slab, so appending to one
// of them never writes into another.
//
// The caller must only materialize against functions whose structural
// fingerprint matches the one the entry was stored under; NumValues is
// re-checked as a cheap guard and nil is returned on mismatch.
func (e *Entry) Materialize(f *ir.Func) *core.Outcome {
	if f.NumValues != e.baseValues {
		return nil
	}
	o := &struct {
		out core.Outcome
		p   alloc.Problem
		res alloc.Result
	}{
		p:   alloc.Problem{R: e.r, Weight: cloneFloats(e.weight), Chordal: e.chordal, Name: f.Name},
		res: alloc.Result{Allocated: cloneBools(e.allocated), Allocator: e.allocator},
	}
	ints := newIntSlab(e.vertexOf, e.valueOf, e.spilled, e.registerOf)
	out := &o.out
	*out = core.Outcome{
		F:             f,
		Problem:       &o.p,
		Result:        &o.res,
		VertexOf:      ints.clone(e.vertexOf),
		ValueOf:       ints.clone(e.valueOf),
		SpilledValues: ints.clone(e.spilled),
		SpillCost:     e.spillCost,
		MaxLive:       e.maxLive,
		RegisterOf:    ints.clone(e.registerOf),
	}
	if e.coalesce != nil {
		st := *e.coalesce
		out.Coalesce = &st
	}
	if e.rewritten != nil {
		out.Rewritten = e.rebind(f)
	}
	return out
}

// rebind clones the stored rewritten body and re-applies f's naming: the
// function name, block names, f's value names, and the "<slot>.r" names of
// the reload temporaries the spill rewrite introduced, through the rewrite's
// own naming rule — exactly the names regassign.InsertSpillCode would have
// produced had the pipeline run on f directly.
func (e *Entry) rebind(f *ir.Func) *ir.Func {
	g := e.rewritten.Clone()
	g.Name = f.Name
	for i, b := range g.Blocks {
		b.Name = f.Blocks[i].Name
	}
	if f.ValueName != nil || g.NumValues > e.baseValues {
		regassign.NameReloads(g, f, e.reloadSlot, nil)
	}
	return g
}

// In-memory sizes of the parts of a rewritten body.
const (
	funcBytes  = int64(unsafe.Sizeof(ir.Func{}))
	blockBytes = int64(unsafe.Sizeof(ir.Block{}) + unsafe.Sizeof((*ir.Block)(nil)))
	instrBytes = int64(unsafe.Sizeof(ir.Instr{}))
	intBytes   = int64(unsafe.Sizeof(int(0)))
)

// size estimates the entry's resident bytes for the cache's accounting: the
// decision-level slices, and the rewritten body's function, block headers
// (and the pointers to them), instructions and int lists — uses, targets,
// clobbers and CFG edges.
func (e *Entry) size() int64 {
	const entryOverhead = 192
	n := int64(entryOverhead)
	n += intBytes * int64(len(e.vertexOf)+len(e.valueOf)+len(e.spilled)+len(e.registerOf)+len(e.reloadSlot))
	n += 8 * int64(len(e.weight))
	n += int64(len(e.allocated))
	if g := e.rewritten; g != nil {
		n += funcBytes
		for _, b := range g.Blocks {
			n += blockBytes + intBytes*int64(len(b.Preds)+len(b.Succs))
			n += instrBytes * int64(len(b.Instrs))
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				n += intBytes * int64(len(ins.Uses)+len(ins.Targets)+len(ins.Clobbers))
			}
		}
	}
	return n
}

// Bytes reports the entry's estimated resident size.
func (e *Entry) Bytes() int64 { return e.bytes }

// intSlab is one allocation holding copies of several []int.
type intSlab []int

// newIntSlab returns an empty slab with room for copies of every s.
func newIntSlab(s ...[]int) intSlab {
	n := 0
	for _, x := range s {
		n += len(x)
	}
	return make(intSlab, 0, n)
}

// clone copies s into the slab and returns the copy, capacity-clipped so
// that appending to it reallocates instead of writing into the next copy.
// An empty s clones to nil.
func (slab *intSlab) clone(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	start := len(*slab)
	*slab = append(*slab, s...)
	return (*slab)[start:len(*slab):len(*slab)]
}

func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

func cloneBools(s []bool) []bool {
	if s == nil {
		return nil
	}
	return append([]bool(nil), s...)
}
