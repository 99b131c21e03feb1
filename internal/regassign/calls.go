package regassign

import (
	"repro/internal/ir"
	"repro/internal/liveness"
)

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
