// Package linearscan implements the linear-scan register allocators used as
// baselines for the non-chordal (JIT) evaluation: the original
// Poletto–Sarkar algorithm (DLS, "default linear scan", which spills the
// interval extending furthest when pressure exceeds R) and the BLS variant,
// which spills by cost but falls back to Belady's furthest-first rule among
// candidates whose costs are within a threshold of each other.
//
// Both run over live intervals on a linearized program layout; holes in
// live ranges are ignored, as in the original algorithm, which makes the
// allocators conservative (an interval over-approximates its live range) but
// linear-time.
package linearscan

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/ifg"
	"repro/internal/liveness"
	"repro/internal/raerr"
)

// Allocator is a linear-scan allocator.
type Allocator struct {
	// Belady switches on the BLS cost-with-threshold strategy.
	Belady bool
	// Threshold is the relative cost window within which BLS considers
	// spill candidates interchangeable and picks the furthest-ending one.
	// Zero means DefaultThreshold.
	Threshold float64
	name      string
}

// DefaultThreshold is the BLS cost window used in the experiments.
const DefaultThreshold = 0.25

// DLS returns the original linear scan (spill the furthest-ending interval).
func DLS() *Allocator { return &Allocator{name: "DLS"} }

// BLS returns the Belady/cost-threshold variant.
func BLS() *Allocator { return &Allocator{Belady: true, name: "BLS"} }

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// CheckProblem implements alloc.ProblemChecker: linear scan runs over live
// intervals, so a problem built without them (a bare graph instance) is
// rejected with a typed error instead of a panic from inside Allocate.
func (a *Allocator) CheckProblem(p *alloc.Problem) error {
	if p.Intervals == nil {
		return fmt.Errorf("%w: linear scan %s: problem has no live intervals", raerr.ErrInvalidConfig, a.name)
	}
	return nil
}

// Allocate implements alloc.Allocator. The problem must carry Intervals.
//
// Empty intervals (Intervals[v] = [s, e] with e < s, the BuildIntervals
// encoding for values live at no program point) are *allocated-as-dead*:
// the value is reported kept (Allocated[v] = true, it contributes no spill
// cost and gains no spill code) but never enters the scan, so it occupies
// no register slot at any point. This is deliberate, not fall-through:
// such a value is in no live set, so keeping it cannot violate a pressure
// constraint, and spilling it would only manufacture spill code for a
// value that is never live. Pinned by TestEmptyIntervalAllocatedAsDead.
func (a *Allocator) Allocate(p *alloc.Problem) *alloc.Result {
	if p.Intervals == nil {
		panic("linearscan: problem has no live intervals")
	}
	n := p.N()
	threshold := a.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if p.Intervals[v][1] >= p.Intervals[v][0] {
			order = append(order, v)
		}
		// else: empty interval — allocated-as-dead, see above.
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := p.Intervals[order[i]][0], p.Intervals[order[j]][0]
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})

	spilled := make([]bool, n)
	// active: currently allocated intervals, kept sorted by increasing end.
	var active []int
	endOf := func(v int) int { return p.Intervals[v][1] }
	for i, v := range order {
		// One budget step per interval. On a trip the unprocessed intervals
		// are all spilled: the decisions already made keep at most R live
		// intervals overlapping at any point, and spilling the rest cannot
		// raise pressure, so the truncated scan is still a valid allocation.
		if !p.Meter.Charge(1) {
			for _, u := range order[i:] {
				spilled[u] = true
			}
			break
		}
		start := p.Intervals[v][0]
		// Expire intervals that ended strictly before start. This is the
		// Poletto–Sarkar ExpireOldIntervals boundary ("if endpoint[j] ≥
		// startpoint[i] then return") on our *inclusive* [start, end]
		// intervals: a value ending exactly where another starts is still
		// live at that shared point — both are in its live set — so it must
		// keep holding its register (endOf(u) == start does not expire),
		// while endOf(u) == start-1 frees the slot. Pinned by
		// TestExpiryBoundary{Touching,Adjacent}.
		keep := active[:0]
		for _, u := range active {
			if endOf(u) >= start {
				keep = append(keep, u)
			}
		}
		active = keep
		if len(active) < p.R {
			active = insertByEnd(active, v, endOf)
			continue
		}
		// Pressure exceeded: pick a victim among active + v.
		victim := a.pickVictim(p, active, v, threshold)
		spilled[victim] = true
		if victim != v {
			// Remove victim from active, add v.
			out := active[:0]
			for _, u := range active {
				if u != victim {
					out = append(out, u)
				}
			}
			active = insertByEnd(out, v, endOf)
		}
	}
	var allocated []int
	for v := 0; v < n; v++ {
		if !spilled[v] {
			allocated = append(allocated, v)
		}
	}
	return alloc.NewResult(n, allocated, a.name)
}

func (a *Allocator) pickVictim(p *alloc.Problem, active []int, cur int, threshold float64) int {
	candidates := append(append([]int(nil), active...), cur)
	if !a.Belady {
		// Original linear scan: spill the interval that ends furthest.
		victim := candidates[0]
		for _, u := range candidates[1:] {
			if p.Intervals[u][1] > p.Intervals[victim][1] {
				victim = u
			}
		}
		return victim
	}
	// BLS: find the cheapest candidates (within the threshold window) and
	// among them spill the furthest-ending one.
	minCost := p.Weight[candidates[0]]
	for _, u := range candidates[1:] {
		if p.Weight[u] < minCost {
			minCost = p.Weight[u]
		}
	}
	limit := minCost * (1 + threshold)
	victim := -1
	for _, u := range candidates {
		if p.Weight[u] > limit {
			continue
		}
		if victim < 0 || p.Intervals[u][1] > p.Intervals[victim][1] {
			victim = u
		}
	}
	return victim
}

func insertByEnd(active []int, v int, endOf func(int) int) []int {
	i := sort.Search(len(active), func(i int) bool { return endOf(active[i]) >= endOf(v) })
	active = append(active, 0)
	copy(active[i+1:], active[i:])
	active[i] = v
	return active
}

// BuildIntervals linearizes the function's program points in block layout
// order and returns, per interference-graph vertex, the inclusive
// [start, end] point range over which the value is live (def points
// included). Vertices that never appear get the empty interval [0, -1].
func BuildIntervals(info *liveness.Info, b *ifg.Build) [][2]int {
	return IntervalsFromLiveness(info, b.VertexOf, b.Graph.N())
}

// IntervalsFromLiveness is BuildIntervals decoupled from the interference
// graph build: it needs only the liveness result and a value→vertex map of
// size n, so the IFG-free fast path can construct linear-scan intervals
// without ever materializing a graph. Each interval is its value's span of
// live points, read from liveness in O(NumValues).
func IntervalsFromLiveness(info *liveness.Info, vertexOf []int, n int) [][2]int {
	return IntervalsInto(nil, info, vertexOf, n)
}

// IntervalsInto is IntervalsFromLiveness writing into dst's memory when it
// holds n intervals (a new slice otherwise); it returns the intervals.
func IntervalsInto(dst [][2]int, info *liveness.Info, vertexOf []int, n int) [][2]int {
	intervals := dst[:0]
	if cap(intervals) < n {
		intervals = make([][2]int, n)
	}
	intervals = intervals[:n]
	for i := range intervals {
		intervals[i] = [2]int{0, -1}
	}
	for val, vx := range vertexOf {
		if vx >= 0 && info.FirstPoint[val] >= 0 {
			intervals[vx] = [2]int{info.FirstPoint[val], info.LastPoint[val]}
		}
	}
	return intervals
}
