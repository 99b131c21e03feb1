// Package stable computes (maximum weighted) stable sets.
//
// On chordal graphs, Frank's algorithm (paper Algorithm 1) finds an exact
// maximum weighted stable set in O(V+E) given a perfect elimination order.
// Every layer of the layered-optimal allocator is one such stable set: the
// optimal allocation for a single additional register.
//
// On general graphs the problem is NP-hard; ClusterVertices (paper
// Algorithm 5) greedily approximates a partition into heavy stable sets for
// the layered-heuristic allocator.
package stable

import (
	"slices"

	"repro/internal/graph"
)

// MaxWeightChordal returns a maximum weighted stable set of a chordal graph,
// implementing Frank's algorithm exactly as in the paper's Algorithm 1.
//
// order must be a perfect elimination order of g (see
// graph.PerfectEliminationOrder); weight must be non-negative. Vertices with
// zero weight are never selected, mirroring the "w' > 0" test of the
// algorithm — callers that must also place zero-weight variables can add an
// epsilon. The returned set is sorted by position in order (the LIFO blue
// marking of the algorithm produces it in reverse; we keep that order and
// let callers sort if needed).
func MaxWeightChordal(g *graph.Graph, order []int, weight []float64) []int {
	n := g.N()
	if len(order) != n || len(weight) != n {
		panic("stable: order/weight length mismatch with graph")
	}
	// Phase 1: scan the PEO; greedily "charge" each still-positive vertex
	// against its neighbors, marking it red (LIFO).
	current := make([]float64, n)
	for _, v := range order {
		current[v] = weight[v]
	}
	var markedRed []int
	for _, v := range order {
		if current[v] <= 0 {
			continue
		}
		markedRed = append(markedRed, v)
		wv := current[v]
		g.VisitNeighbors(v, func(u int) {
			current[u] -= wv
			if current[u] < 0 {
				current[u] = 0
			}
		})
		current[v] = 0
	}
	// Phase 2: pop reds LIFO; keep (mark blue) each red not adjacent to an
	// already-blue vertex. The result is a maximum weighted stable set.
	blue := make([]bool, n)
	inRed := make([]bool, n)
	for _, v := range markedRed {
		inRed[v] = true
	}
	var result []int
	for i := len(markedRed) - 1; i >= 0; i-- {
		v := markedRed[i]
		if !inRed[v] {
			continue // removed by an earlier blue neighbor
		}
		inRed[v] = false
		blue[v] = true
		result = append(result, v)
		g.VisitNeighbors(v, func(u int) {
			inRed[u] = false
		})
	}
	return result
}

// RedPhase exposes the intermediate red marking of Frank's algorithm, in
// insertion order, for tests reproducing the paper's Figure 5 trace.
func RedPhase(g *graph.Graph, order []int, weight []float64) []int {
	n := g.N()
	current := make([]float64, n)
	for _, v := range order {
		current[v] = weight[v]
	}
	var markedRed []int
	for _, v := range order {
		if current[v] <= 0 {
			continue
		}
		markedRed = append(markedRed, v)
		wv := current[v]
		g.VisitNeighbors(v, func(u int) {
			current[u] -= wv
			if current[u] < 0 {
				current[u] = 0
			}
		})
		current[v] = 0
	}
	return markedRed
}

// GreedyMaximal returns a maximal stable set built by scanning candidates in
// the given order and keeping every vertex not adjacent to one already kept.
// With candidates sorted by decreasing weight this is the inner loop of the
// paper's Algorithm 5 (one cluster).
func GreedyMaximal(g *graph.Graph, candidates []int) []int {
	kept := make([]bool, g.N())
	excluded := make([]bool, g.N())
	var cluster []int
	for _, v := range candidates {
		if excluded[v] || kept[v] {
			continue
		}
		kept[v] = true
		cluster = append(cluster, v)
		g.VisitNeighbors(v, func(u int) {
			excluded[u] = true
		})
	}
	return cluster
}

// ClusterVertices implements the paper's Algorithm 5: it partitions the
// vertex set into clusters (stable sets), each built greedily from the
// heaviest remaining vertices. Clusters are returned in construction order,
// which is also (weakly) decreasing total weight in practice but not by
// guarantee; AllocateClusters sorts before choosing.
func ClusterVertices(g *graph.Graph, weight []float64) [][]int {
	return new(ClusterScratch).Cluster(g, weight)
}

// ClusterScratch recycles the memory of ClusterVertices across graphs: the
// candidate order, the flags, and the clusters themselves, which partition
// the vertices and so share one n-vertex slab. A ClusterScratch is not safe
// for concurrent use.
type ClusterScratch struct {
	candidates, pool, slab []int
	assigned, excluded     []bool
	clusters               [][]int
}

// Cluster is ClusterVertices on the scratch's memory: the clusters are
// valid until its next call.
func (s *ClusterScratch) Cluster(g *graph.Graph, weight []float64) [][]int {
	n := g.N()
	candidates := grow(s.candidates, n)
	for i := range candidates {
		candidates[i] = i
	}
	// Decreasing weight, vertex ID as deterministic tie-break.
	slices.SortStableFunc(candidates, func(a, b int) int {
		if wa, wb := weight[a], weight[b]; wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return a - b
	})
	assigned, excluded := grow(s.assigned, n), grow(s.excluded, n)
	clear(assigned)
	pool := grow(s.pool, n)[:0]
	// Clusters are disjoint and cover every vertex: each is a
	// capacity-clamped window of one n-vertex slab.
	slab := grow(s.slab, n)[:0]
	clusters := s.clusters[:0]
	remaining := n
	for remaining > 0 {
		// Inlined GreedyMaximal over the unassigned candidates, reusing the
		// pool and exclusion scratch across clusters.
		pool = pool[:0]
		for _, v := range candidates {
			if !assigned[v] {
				pool = append(pool, v)
				excluded[v] = false
			}
		}
		start := len(slab)
		for _, v := range pool {
			if excluded[v] {
				continue
			}
			slab = append(slab, v)
			assigned[v] = true
			g.VisitNeighbors(v, func(u int) {
				excluded[u] = true
			})
		}
		remaining -= len(slab) - start
		clusters = append(clusters, slab[start:len(slab):len(slab)])
	}
	s.candidates, s.pool, s.slab = candidates, pool, slab
	s.assigned, s.excluded, s.clusters = assigned, excluded, clusters
	return clusters
}

// grow returns s with length n, reusing its memory when large enough; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SetWeight sums weight over the vertex set s.
func SetWeight(s []int, weight []float64) float64 {
	total := 0.0
	for _, v := range s {
		total += weight[v]
	}
	return total
}
