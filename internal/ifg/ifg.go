// Package ifg builds interference graphs from liveness information.
//
// For a strict-SSA function, live ranges are subtrees of the dominance tree,
// so the interference graph built here is chordal and its maximal cliques
// correspond to live sets at program points — the structural facts layered
// allocation relies on. For non-SSA functions the same construction yields a
// general graph; the live sets are still exported as the register-pressure
// constraints ("point cliques") used by the pressure-based allocators and
// the exact solver.
package ifg

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Build is the result of constructing an interference graph.
type Build struct {
	F *ir.Func
	// Graph has one vertex per allocable value; VertexOf/ValueOf translate.
	// It is returned frozen (CSR snapshot current) for fast neighbor scans.
	Graph *graph.Graph
	// VertexOf maps value ID to vertex (-1 when the value never occurs).
	VertexOf []int
	// ValueOf maps vertex to value ID.
	ValueOf []int
	// LiveSets holds the distinct program-point live sets translated to
	// vertex IDs, each sorted. Every live set is a clique of Graph.
	LiveSets [][]int
	// MaxLive is the peak register pressure.
	MaxLive int
}

// FromFunc computes liveness and builds the interference graph in one step.
func FromFunc(f *ir.Func) *Build {
	return FromLiveness(liveness.Compute(f))
}

// Scratch recycles the transient memory of FromLiveness across functions:
// the value bitsets, the live-set interner and the translation buffers. The
// Builds it returns never alias it and stay valid indefinitely; a Scratch is
// not safe for concurrent use.
type Scratch struct {
	arena   bitset.Arena
	intern  *bitset.Interner
	vsBuf   []int
	phiDefs []int
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{intern: bitset.NewInterner(64)} }

// FromLiveness builds the interference graph from precomputed liveness.
//
// Vertices are created for every value that is defined or live anywhere.
// Interference edges are added def-against-live (Chaitin's construction,
// with phi defs interfering with the live-ins of their block), plus
// clique edges for every program-point live set so that the graph is
// exactly the intersection graph of live ranges.
func FromLiveness(info *liveness.Info) *Build {
	return NewScratch().FromLiveness(info)
}

// FromLiveness is the package-level FromLiveness on the scratch's memory.
func (s *Scratch) FromLiveness(info *liveness.Info) *Build {
	f := info.F
	s.arena.Reset()
	s.intern.Reset()
	b := &Build{
		F:        f,
		VertexOf: make([]int, f.NumValues),
		MaxLive:  info.MaxLive,
	}
	for i := range b.VertexOf {
		b.VertexOf[i] = -1
	}
	present := s.arena.Set(f.NumValues)
	mark := func(v int) {
		if v >= 0 && v < f.NumValues {
			present.Add(v)
		}
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				mark(ins.Def)
			}
			for _, u := range ins.Uses {
				mark(u)
			}
		}
	}
	for _, p := range info.Points {
		for _, v := range p.Live {
			mark(v)
		}
	}
	b.ValueOf = present.AppendTo(make([]int, 0, present.Count()))
	for vx, v := range b.ValueOf {
		b.VertexOf[v] = vx
	}
	b.Graph = graph.New(len(b.ValueOf))

	// Every program-point live set is a set of simultaneously live values:
	// make each a clique. This subsumes the def-vs-live rule for defs with
	// uses; dead defs are handled by the explicit def-vs-live-after pass
	// below. Each point is translated into a reusable scratch slice and
	// deduplicated through the interner (no string fingerprints, no
	// allocation for duplicate points).
	intern := s.intern
	mask := s.arena.Set(len(b.ValueOf))
	for _, p := range info.Points {
		if len(p.Live) < 1 {
			continue
		}
		vs := s.vsBuf[:0]
		for _, v := range p.Live {
			vs = append(vs, b.VertexOf[v])
		}
		s.vsBuf = vs
		if idx, added := intern.Intern(vs); added {
			b.Graph.AddCliqueMask(intern.Sets()[idx], mask)
		}
	}
	// Copy the interned sets out into one exact-size retained slab (the
	// interner's storage is scratch and will be recycled).
	interned := intern.Sets()
	total := 0
	for _, set := range interned {
		total += len(set)
	}
	slab := make([]int, 0, total)
	b.LiveSets = make([][]int, len(interned))
	for i, set := range interned {
		start := len(slab)
		slab = append(slab, set...)
		b.LiveSets[i] = slab[start:len(slab):len(slab)]
	}

	// Def-vs-live edges for dead or immediately-dead definitions: walk each
	// block backward like the liveness point computation and connect each
	// def to everything live after it.
	liveAfter := s.arena.Set(f.NumValues)
	for _, blk := range f.Blocks {
		liveAfter.Clear()
		for _, v := range info.LiveOut[blk.ID] {
			liveAfter.Add(v)
		}
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			ins := &blk.Instrs[i]
			if ins.Op == ir.OpPhi {
				continue
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				dv := b.VertexOf[ins.Def]
				liveAfter.ForEach(func(u int) {
					if u != ins.Def {
						b.Graph.AddEdge(dv, b.VertexOf[u])
					}
				})
				liveAfter.Remove(ins.Def)
			}
			for _, u := range ins.Uses {
				liveAfter.Add(u)
			}
		}
		// Phi defs all occupy registers simultaneously at the block
		// boundary and against the block's live-in set.
		phiDefs := s.phiDefs[:0]
		for _, ins := range blk.Instrs {
			if ins.Op == ir.OpPhi {
				phiDefs = append(phiDefs, ins.Def)
			}
		}
		s.phiDefs = phiDefs
		for i := 0; i < len(phiDefs); i++ {
			for j := i + 1; j < len(phiDefs); j++ {
				b.Graph.AddEdge(b.VertexOf[phiDefs[i]], b.VertexOf[phiDefs[j]])
			}
			for _, u := range info.LiveIn[blk.ID] {
				if u != phiDefs[i] {
					b.Graph.AddEdge(b.VertexOf[phiDefs[i]], b.VertexOf[u])
				}
			}
		}
	}
	// The interned sets are distinct, so any sort yields the same order.
	slices.SortFunc(b.LiveSets, slices.Compare[[]int])
	b.Graph.Freeze()
	return b
}

// Names returns the printable value names for a vertex set, sorted, for
// diagnostics.
func (b *Build) Names(vertices []int) []string {
	out := make([]string, len(vertices))
	for i, v := range vertices {
		out[i] = b.F.NameOf(b.ValueOf[v])
	}
	sort.Strings(out)
	return out
}
