package graph

// PerfectEliminationOrder computes a vertex order by Maximum Cardinality
// Search (Tarjan & Yannakakis). If the graph is chordal the returned order is
// a perfect elimination order; callers that need certainty should follow up
// with IsPerfectEliminationOrder or use IsChordal.
//
// The order is returned elimination-first: order[0] is eliminated first, and
// each order[i] is simplicial in the subgraph induced by order[i:] when the
// graph is chordal.
func (g *Graph) PerfectEliminationOrder() []int {
	n := g.n
	// MCS produces a reverse perfect elimination order: repeatedly pick the
	// unvisited vertex with the most visited neighbors.
	//
	// The bucket queue is a set of intrusive doubly-linked lists, one per
	// weight, over three flat arrays — no per-bucket slice churn, O(1)
	// promotion of a vertex to the next weight. Ascending neighbor visits
	// plus deterministic list surgery keep the order reproducible. The
	// arrays and the visit order share one slab; a visited vertex has
	// weight -1.
	slab := make([]int, 5*n+1)
	weight := slab[:n:n]
	head := slab[n : 2*n+1 : 2*n+1] // head[w]: first vertex of the weight-w list
	next := slab[2*n+1 : 3*n+1 : 3*n+1]
	prev := slab[3*n+1 : 4*n+1 : 4*n+1]
	for i := range head {
		head[i] = -1
	}
	// Seed the weight-0 list in ascending vertex order.
	for v := n - 1; v >= 0; v-- {
		next[v] = head[0]
		prev[v] = -1
		if head[0] != -1 {
			prev[head[0]] = v
		}
		head[0] = v
	}
	unlink := func(v int) {
		if prev[v] != -1 {
			next[prev[v]] = next[v]
		} else {
			head[weight[v]] = next[v]
		}
		if next[v] != -1 {
			prev[next[v]] = prev[v]
		}
	}
	maxW := 0
	reverse := slab[4*n+1 : 4*n+1 : 5*n+1]
	for len(reverse) < n {
		for maxW > 0 && head[maxW] == -1 {
			maxW--
		}
		v := head[maxW]
		unlink(v)
		weight[v] = -1
		reverse = append(reverse, v)
		g.VisitNeighbors(v, func(u int) {
			if weight[u] < 0 {
				return
			}
			unlink(u)
			weight[u]++
			w := weight[u]
			next[u] = head[w]
			prev[u] = -1
			if head[w] != -1 {
				prev[head[w]] = u
			}
			head[w] = u
			if w > maxW {
				maxW = w
			}
		})
	}
	// reverse[0] is eliminated last; flip to elimination-first order.
	order := make([]int, n)
	for i, v := range reverse {
		order[n-1-i] = v
	}
	return order
}

// IsPerfectEliminationOrder reports whether order is a perfect elimination
// order of g: every vertex's later neighbors (in elimination order) form a
// clique. It runs the standard O(V+E) Rose–Tarjan–Lueker check.
func (g *Graph) IsPerfectEliminationOrder(order []int) bool {
	n := g.n
	if len(order) != n {
		return false
	}
	index := make([]int, n)
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
		index[v] = i
	}
	// For each v, let parent(v) be its earliest later-neighbor; it suffices
	// to check that v's other later-neighbors are adjacent to parent(v).
	var later []int
	for i, v := range order {
		later = later[:0]
		g.VisitNeighbors(v, func(u int) {
			if index[u] > i {
				later = append(later, u)
			}
		})
		if len(later) <= 1 {
			continue
		}
		parent := later[0]
		for _, u := range later[1:] {
			if index[u] < index[parent] {
				parent = u
			}
		}
		ok := true
		for _, u := range later {
			if u != parent && !g.adj[parent].Has(u) {
				ok = false
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsChordal reports whether g is a chordal (triangulated) graph.
func (g *Graph) IsChordal() bool {
	return g.IsPerfectEliminationOrder(g.PerfectEliminationOrder())
}

// MaximalCliques enumerates the maximal cliques of a chordal graph given a
// perfect elimination order, in O(V+E). Each clique is sorted ascending and
// the clique list is returned in elimination order of its defining vertex.
//
// For a chordal interference graph of a strict-SSA program these cliques
// correspond exactly to the live sets at program points (Hack et al.), which
// is the register-pressure view layered allocation exploits.
//
// The result is undefined (possibly non-maximal cliques) if order is not a
// perfect elimination order of g.
func (g *Graph) MaximalCliques(order []int) [][]int {
	n := g.n
	index := make([]int, n)
	for i, v := range order {
		index[v] = i
	}
	// Candidate clique for v: {v} ∪ later-neighbors(v). Every maximal clique
	// of a chordal graph arises this way; a candidate C(v) can only be
	// properly contained in C(u) where u is a neighbor of v eliminated
	// earlier (any containing candidate must include v, and candidates of
	// later vertices contain only later vertices). We filter non-maximal
	// candidates with a sorted-subset test against those candidates.
	// Candidate sizes first, then one backing slab for all candidates: the
	// total is n + Σ|later-neighbors| ≤ n + 2m, so two passes beat per-vertex
	// slice growth by orders of magnitude in allocations.
	sizes := make([]int, n)
	total := 0
	for i, v := range order {
		cnt := 1
		g.VisitNeighbors(v, func(u int) {
			if index[u] > i {
				cnt++
			}
		})
		sizes[i] = cnt
		total += cnt
	}
	slab := make([]int, total)
	cand := make([][]int, n)
	offset := 0
	for i, v := range order {
		// Ascending neighbor iteration with v spliced in keeps each
		// candidate sorted without a sort call.
		c := slab[offset : offset : offset+sizes[i]]
		offset += sizes[i]
		placed := false
		g.VisitNeighbors(v, func(u int) {
			if index[u] <= i {
				return
			}
			if !placed && u > v {
				c = append(c, v)
				placed = true
			}
			c = append(c, u)
		})
		if !placed {
			c = append(c, v)
		}
		cand[i] = c
	}
	var cliques [][]int
	for i, v := range order {
		c := cand[i]
		maximal := true
		g.VisitNeighbors(v, func(u int) {
			if !maximal {
				return
			}
			j := index[u]
			if j >= i || len(cand[j]) <= len(c) {
				return
			}
			if sortedSubset(c, cand[j]) {
				maximal = false
			}
		})
		if maximal {
			cliques = append(cliques, c)
		}
	}
	return cliques
}

// sortedSubset reports whether sorted slice a is a subset of sorted slice b.
func sortedSubset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// CliqueNumber returns the size of a maximum clique of a chordal graph,
// computed from a perfect elimination order. For interference graphs this is
// MaxLive. Returns 0 for the empty graph.
func (g *Graph) CliqueNumber(order []int) int {
	n := g.n
	index := make([]int, n)
	for i, v := range order {
		index[v] = i
	}
	best := 0
	if n > 0 {
		best = 1
	}
	for i, v := range order {
		later := 1
		g.VisitNeighbors(v, func(u int) {
			if index[u] > i {
				later++
			}
		})
		if later > best {
			best = later
		}
	}
	return best
}

// GreedyColorPEO colours a chordal graph optimally by scanning the reverse of
// a perfect elimination order and giving each vertex the smallest colour not
// used by its already-coloured neighbors. The returned slice maps vertex to
// colour in [0, ω). This is the assignment ("tree-scan") half of decoupled
// register allocation.
func (g *Graph) GreedyColorPEO(order []int) []int {
	n := g.n
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	usedAt := NewColorScratch(n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		color[v] = g.SmallestFreeColor(v, color, usedAt, i)
	}
	return color
}

// NewColorScratch allocates the stamp array SmallestFreeColor needs for a
// graph of n vertices, initialized so any stamp ≥ 0 is fresh.
func NewColorScratch(n int) []int {
	usedAt := make([]int, n+1)
	for i := range usedAt {
		usedAt[i] = -1
	}
	return usedAt
}

// SmallestFreeColor returns the smallest colour not used by any coloured
// neighbor of v. color maps vertex → colour with -1 for uncoloured; usedAt
// comes from NewColorScratch and is reused across calls — stamp must be a
// distinct non-negative value per call (the stamp trick avoids clearing the
// array between vertices).
func (g *Graph) SmallestFreeColor(v int, color, usedAt []int, stamp int) int {
	g.VisitNeighbors(v, func(u int) {
		if c := color[u]; c >= 0 {
			usedAt[c] = stamp
		}
	})
	c := 0
	for usedAt[c] == stamp {
		c++
	}
	return c
}

// ColorableWith reports whether the subgraph induced by the allocated set is
// colourable with r colours, using the PEO greedy colouring (exact on
// chordal graphs). allocated is given as a membership predicate over all
// vertices of g.
func (g *Graph) ColorableWith(allocated []bool, r int) bool {
	keep := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if allocated[v] {
			keep = append(keep, v)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	order := sub.PerfectEliminationOrder()
	if !sub.IsPerfectEliminationOrder(order) {
		// Non-chordal subgraph: fall back to greedy bound; a greedy
		// success is still a proof of colourability.
		colors := sub.GreedyColorPEO(order)
		maxc := -1
		for _, c := range colors {
			if c > maxc {
				maxc = c
			}
		}
		return maxc+1 <= r
	}
	return sub.CliqueNumber(order) <= r
}
