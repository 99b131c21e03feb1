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
	// spill rewrite.
	baseValues int
	bytes      int64
}

// NewEntry deep-copies out into a cache entry. The outcome's analysis
// structures (interference graph, clique structure, live sets) are
// deliberately dropped: cached outcomes are decision-level, which is what
// keeps a hit at ~hash+copy cost.
func NewEntry(out *core.Outcome) *Entry {
	e := &Entry{
		allocator:  out.Result.Allocator,
		r:          out.Problem.R,
		chordal:    out.Problem.Chordal,
		weight:     cloneFloats(out.Problem.Weight),
		vertexOf:   cloneInts(out.VertexOf),
		valueOf:    cloneInts(out.ValueOf),
		allocated:  cloneBools(out.Result.Allocated),
		spilled:    cloneInts(out.SpilledValues),
		spillCost:  out.SpillCost,
		maxLive:    out.MaxLive,
		registerOf: cloneInts(out.RegisterOf),
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
		e.rewritten = g
	}
	e.bytes = e.size()
	return e
}

// Materialize builds a fresh Outcome for f from the entry: every slice is
// copied (a hit receiver owns its outcome outright — mutating it cannot
// poison the cache) and all naming is re-bound to f, so a hit is
// byte-identical to what a full run on f would have produced. The returned
// outcome carries a decision-level Problem (weights, R, chordality) with
// no interference representation attached.
//
// The caller must only materialize against functions whose structural
// fingerprint matches the one the entry was stored under; NumValues is
// re-checked as a cheap guard and nil is returned on mismatch.
func (e *Entry) Materialize(f *ir.Func) *core.Outcome {
	if f.NumValues != e.baseValues {
		return nil
	}
	out := &core.Outcome{
		F: f,
		Problem: &alloc.Problem{
			R:       e.r,
			Weight:  cloneFloats(e.weight),
			Chordal: e.chordal,
			Name:    f.Name,
		},
		Result:        &alloc.Result{Allocated: cloneBools(e.allocated), Allocator: e.allocator},
		VertexOf:      cloneInts(e.vertexOf),
		ValueOf:       cloneInts(e.valueOf),
		SpilledValues: cloneInts(e.spilled),
		SpillCost:     e.spillCost,
		MaxLive:       e.maxLive,
		RegisterOf:    cloneInts(e.registerOf),
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
		regassign.NameReloads(g, f, nil)
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
	n += intBytes * int64(len(e.vertexOf)+len(e.valueOf)+len(e.spilled)+len(e.registerOf))
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

func cloneInts(s []int) []int {
	if s == nil {
		return nil
	}
	return append([]int(nil), s...)
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
