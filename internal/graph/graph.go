// Package graph provides weighted undirected graphs and the chordal-graph
// machinery (perfect elimination orders, maximal cliques, greedy colouring)
// that layered register allocation is built on.
//
// Vertices are dense integer IDs in [0, N). Most allocator-facing code works
// with a *Graph plus a parallel weight slice; the Weighted helper bundles the
// two. The package is deterministic: every enumeration (neighbors, cliques,
// orders) is returned in ascending/stable order so allocation results are
// reproducible run to run.
//
// Adjacency is stored as dense bitset rows (one word-packed row per vertex),
// giving O(1) edge tests, O(n/64) row operations, and ascending neighbor
// iteration by construction. Freeze additionally snapshots a CSR (compressed
// sparse row) form of the adjacency for cache-friendly neighbor scans in the
// read-only algorithm phases; any mutation invalidates the snapshot.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
)

// Graph is an undirected graph over vertices 0..N-1. The zero value is an
// empty graph with no vertices; use New to pre-size.
type Graph struct {
	n   int
	adj []bitset.Set // adjacency bitset rows, one per vertex

	// Frozen CSR snapshot: neighbors of v are csrAdj[csrOff[v]:csrOff[v+1]],
	// ascending. Nil when stale; rebuilt by Freeze.
	csrOff []int32
	csrAdj []int32
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: bitset.NewSlab(n, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	if g.csrOff != nil {
		return len(g.csrAdj) / 2
	}
	total := 0
	for _, row := range g.adj {
		total += row.Count()
	}
	return total / 2
}

// dirty drops the CSR snapshot after a mutation.
func (g *Graph) dirty() {
	g.csrOff, g.csrAdj = nil, nil
}

// Freeze builds (or rebuilds) the CSR adjacency snapshot. Read-heavy phases
// (PEO, clique enumeration, colouring, allocation) iterate neighbors through
// it; calling Freeze is optional — iteration falls back to the bitset rows —
// but frozen scans are faster on sparse graphs. Any mutation invalidates the
// snapshot automatically.
func (g *Graph) Freeze() {
	off := make([]int32, g.n+1)
	total := 0
	for v, row := range g.adj {
		off[v] = int32(total)
		total += row.Count()
	}
	off[g.n] = int32(total)
	adj := make([]int32, total)
	for v, row := range g.adj {
		i := off[v]
		row.ForEach(func(u int) {
			adj[i] = int32(u)
			i++
		})
	}
	g.csrOff, g.csrAdj = off, adj
}

// Frozen reports whether a current CSR snapshot exists.
func (g *Graph) Frozen() bool { return g.csrOff != nil }

// AddVertex appends a fresh vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.n++
	w := bitset.Words(g.n)
	for i, row := range g.adj {
		if len(row) < w {
			// Rows may share a backing slab; grow into fresh storage.
			grown := make(bitset.Set, w)
			copy(grown, row)
			g.adj[i] = grown
		}
	}
	g.adj = append(g.adj, make(bitset.Set, w))
	g.dirty()
	return g.n - 1
}

// AddEdge inserts the undirected edge (u, v). Self-loops are rejected;
// duplicate insertions are no-ops.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
	g.dirty()
}

// AddClique makes every pair of vs adjacent, in O(|vs| · n/64) instead of
// the O(|vs|²) pairwise AddEdge loop. Duplicate members are tolerated.
func (g *Graph) AddClique(vs []int) {
	if len(vs) < 2 {
		return
	}
	mask := bitset.Get(g.n)
	g.AddCliqueMask(vs, *mask)
	bitset.Put(mask)
}

// AddCliqueMask is AddClique with the caller's scratch set mask, which must
// be empty and span the vertices; it is left empty again.
func (g *Graph) AddCliqueMask(vs []int, mask bitset.Set) {
	if len(vs) < 2 {
		return
	}
	for _, v := range vs {
		g.check(v)
		mask.Add(v)
	}
	for _, v := range vs {
		g.adj[v].Or(mask)
		g.adj[v].Remove(v) // no self-loops
	}
	for _, v := range vs {
		mask.Remove(v)
	}
	g.dirty()
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.adj[u].Has(v)
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	if g.csrOff != nil {
		return int(g.csrOff[v+1] - g.csrOff[v])
	}
	return g.adj[v].Count()
}

// Neighbors returns the neighbors of v in ascending order. The slice is
// freshly allocated and safe for the caller to retain.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	if g.csrOff != nil {
		row := g.csrAdj[g.csrOff[v]:g.csrOff[v+1]]
		out := make([]int, len(row))
		for i, u := range row {
			out[i] = int(u)
		}
		return out
	}
	return g.adj[v].AppendTo(make([]int, 0, g.adj[v].Count()))
}

// VisitNeighbors calls fn for every neighbor of v in ascending order. It
// avoids the allocation of Neighbors for hot paths; when a CSR snapshot is
// current (see Freeze) the scan runs over the packed neighbor array.
func (g *Graph) VisitNeighbors(v int, fn func(u int)) {
	g.check(v)
	if g.csrOff != nil {
		for _, u := range g.csrAdj[g.csrOff[v]:g.csrOff[v+1]] {
			fn(int(u))
		}
		return
	}
	g.adj[v].ForEach(fn)
}

// AdjRow returns v's adjacency bitset. The row is shared with the graph and
// must not be mutated; it stays valid until the next AddVertex.
func (g *Graph) AdjRow(v int) bitset.Set {
	g.check(v)
	return g.adj[v]
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for v, row := range g.adj {
		c.adj[v].CopyFrom(row)
	}
	return c
}

// RemoveVertexEdges detaches v from all of its neighbors, leaving v present
// but isolated. Register allocators use this to take a spilled variable out
// of the interference structure without renumbering.
func (g *Graph) RemoveVertexEdges(v int) {
	g.check(v)
	g.adj[v].ForEach(func(u int) {
		g.adj[u].Remove(v)
	})
	g.adj[v].Clear()
	g.dirty()
}

// InducedSubgraph returns the subgraph induced by keep along with the
// mapping from new vertex IDs to original ones (newToOld). Vertices are
// renumbered 0..len(keep)-1 in the sorted order of keep.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	newToOld := append([]int(nil), keep...)
	sort.Ints(newToOld)
	oldToNew := make([]int, g.n)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	mask := bitset.Get(g.n)
	for i, v := range newToOld {
		g.check(v)
		oldToNew[v] = i
		mask.Add(v)
	}
	sub := New(len(newToOld))
	row := bitset.Get(g.n)
	for i, v := range newToOld {
		row.CopyFrom(g.adj[v])
		row.And(*mask)
		row.ForEach(func(u int) {
			if j := oldToNew[u]; j > i {
				sub.adj[i].Add(j)
				sub.adj[j].Add(i)
			}
		})
	}
	bitset.Put(row)
	bitset.Put(mask)
	return sub, newToOld
}

// IsStableSet reports whether no two vertices of s are adjacent.
func (g *Graph) IsStableSet(s []int) bool {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if g.HasEdge(s[i], s[j]) {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether every two distinct vertices of s are adjacent.
func (g *Graph) IsClique(s []int) bool {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if !g.HasEdge(s[i], s[j]) {
				return false
			}
		}
	}
	return true
}

// String renders the graph as "n=<N> m=<M> edges=[(u,v) ...]" with edges in
// lexicographic order, mainly for test failure messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d edges=[", g.n, g.M())
	first := true
	for v := 0; v < g.n; v++ {
		g.adj[v].ForEach(func(u int) {
			if u > v {
				if !first {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "(%d,%d)", v, u)
				first = false
			}
		})
	}
	b.WriteByte(']')
	return b.String()
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Weighted bundles a graph with per-vertex non-negative weights (spill
// costs). The two slices are parallel: Weight[v] is the cost of vertex v.
type Weighted struct {
	*Graph
	Weight []float64
}

// NewWeighted wraps g with the given weights. It panics if the lengths
// disagree or any weight is negative.
func NewWeighted(g *Graph, weight []float64) *Weighted {
	if len(weight) != g.N() {
		panic(fmt.Sprintf("graph: %d weights for %d vertices", len(weight), g.N()))
	}
	for v, w := range weight {
		if w < 0 {
			panic(fmt.Sprintf("graph: negative weight %g on vertex %d", w, v))
		}
	}
	return &Weighted{Graph: g, Weight: weight}
}

// TotalWeight returns the sum of all vertex weights.
func (w *Weighted) TotalWeight() float64 {
	total := 0.0
	for _, x := range w.Weight {
		total += x
	}
	return total
}

// SetWeight returns the sum of weights over the vertex set s.
func (w *Weighted) SetWeight(s []int) float64 {
	total := 0.0
	for _, v := range s {
		total += w.Weight[v]
	}
	return total
}
