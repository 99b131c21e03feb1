package ir

// Dominance holds the dominator tree of a function, computed with the
// Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"). Block 0 is the root; unreachable blocks have Idom -1 and are
// excluded from the tree.
type Dominance struct {
	// Idom[b] is the immediate dominator of block b (-1 for the entry and
	// for unreachable blocks).
	Idom []int
	// Children[b] lists the blocks immediately dominated by b, in
	// reverse-postorder for determinism.
	Children [][]int
	// Order[b] is the reverse-postorder number of block b (-1 if
	// unreachable).
	Order []int
	// Postorder lists reachable block IDs in postorder.
	Postorder []int
	// pre[b] numbers block b in a preorder of the dominator tree (-1 if
	// unreachable) and last[b] is the largest number in b's subtree, so a
	// dominates b exactly when pre[b] falls in [pre[a], last[a]].
	pre, last []int
}

// Scratch is reusable memory for validating functions and analysing their
// dominance and loops. A driver that validates thousands of functions runs
// them all through one Scratch instead of reallocating the dominance,
// definition and loop tables per function. The Dominance and loop depths a
// Scratch returns are valid until its next call; the package-level
// Validate, ValidateAnalyzed, ComputeDominance and ComputeLoops use a
// private Scratch each, so their results stay valid indefinitely. A Scratch
// is not safe for concurrent use.
type Scratch struct {
	dom Dominance
	// Dominance: Idom, Order, Postorder, the DFS stack, the tree numbering
	// and its preorder share ints; the children lists are windows of kids.
	ints, counts, kids []int
	visited            []bool
	// validateSSA's value-indexed definition tables.
	defSite  []DefSite
	defCount []int32
	// Loops: per-block depth, header flags and membership, the worklist.
	depth            []int
	isHeader, inLoop []bool
	stack, headers   []int
}

// ComputeDominance builds dominance information for f. All integer arrays
// (Idom, Order, Postorder, the DFS worklist) are carved from one backing
// slab, and Children sub-slices a second one, so a call costs a handful of
// allocations regardless of block count.
func (f *Func) ComputeDominance() *Dominance {
	return new(Scratch).dominance(f)
}

// dominance is ComputeDominance on the scratch's memory.
func (s *Scratch) dominance(f *Func) *Dominance {
	n := len(f.Blocks)
	s.ints = grow(s.ints, 7*n)
	slab := s.ints
	d := &s.dom
	d.Idom = slab[0:n:n]
	d.Order = slab[n : 2*n : 2*n]
	for i := range d.Idom {
		d.Idom[i] = -1
		d.Order[i] = -1
	}
	// Iterative DFS postorder from the entry. The stack packs (block, next
	// successor index) into one int each to stay inside the slab; the
	// modulus must exceed every successor count, which can top n+1 when a
	// block lists the same successor twice (a condbr with equal targets in
	// a tiny function).
	mod := n + 1
	for _, b := range f.Blocks {
		if len(b.Succs) >= mod {
			mod = len(b.Succs) + 1
		}
	}
	post := slab[2*n : 2*n : 3*n]
	stack := slab[3*n : 3*n : 4*n]
	s.visited = grow(s.visited, n)
	visited := s.visited
	clear(visited)
	push := func(b int) { stack = append(stack, b*mod) }
	push(0)
	visited[0] = true
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		block, next := top/mod, top%mod
		succs := f.Blocks[block].Succs
		if next < len(succs) {
			stack[len(stack)-1]++
			if succ := succs[next]; !visited[succ] {
				visited[succ] = true
				push(succ)
			}
			continue
		}
		post = append(post, block)
		stack = stack[:len(stack)-1]
	}
	d.Postorder = post
	for i, b := range post {
		d.Order[b] = len(post) - 1 - i
	}

	// Iterate to fixpoint over reverse postorder.
	d.Idom[0] = 0 // CHK convention: entry's idom is itself during iteration
	for changed := true; changed; {
		changed = false
		for i := len(post) - 1; i >= 0; i-- {
			b := post[i]
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range f.Blocks[b].Preds {
				if d.Order[p] < 0 || d.Idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}
	d.Idom[0] = -1 // restore the usual convention for the entry
	// Children in reverse postorder, carved from one slab.
	s.counts = grow(s.counts, n+1)
	counts := s.counts
	clear(counts)
	for _, b := range post {
		if b != 0 {
			if p := d.Idom[b]; p >= 0 {
				counts[p+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	s.kids = grow(s.kids, counts[n])
	kids := s.kids
	fill := counts // prefix sums double as fill cursors
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		if b == 0 {
			continue
		}
		if p := d.Idom[b]; p >= 0 {
			kids[fill[p]] = b
			fill[p]++
		}
	}
	d.Children = grow(d.Children, n)
	off := 0
	for p := 0; p < n; p++ {
		end := fill[p]
		d.Children[p] = kids[off:end:end]
		off = end
	}
	d.number(slab[4*n:5*n:5*n], slab[5*n:6*n:6*n], slab[6*n:6*n:7*n], slab[3*n:3*n:4*n])
	return d
}

// number fills d.pre and d.last from the dominator tree into pre and last
// (length n each), using seq and stack (empty, capacity n) as scratch.
func (d *Dominance) number(pre, last, seq, stack []int) {
	d.pre, d.last = pre, last
	for i := range pre {
		pre[i] = -1
	}
	stack = append(stack, 0)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre[b], last[b] = len(seq), len(seq)
		seq = append(seq, b)
		stack = append(stack, d.Children[b]...)
	}
	// A subtree follows its root in preorder: walking the preorder backward
	// finishes every subtree before its root's parent reads it.
	for i := len(seq) - 1; i > 0; i-- {
		b := seq[i]
		p := d.Idom[b]
		last[p] = max(last[p], last[b])
	}
}

// grow returns s with length n, reusing its memory when large enough; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (d *Dominance) intersect(a, b int) int {
	for a != b {
		for d.Order[a] > d.Order[b] {
			a = d.Idom[a]
		}
		for d.Order[b] > d.Order[a] {
			b = d.Idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively), in
// O(1) from the dominator tree's preorder numbering. Unreachable blocks
// dominate nothing and are dominated by nothing.
func (d *Dominance) Dominates(a, b int) bool {
	pa, pb := d.pre[a], d.pre[b]
	return pa >= 0 && pb >= 0 && pa <= pb && pb <= d.last[a]
}

// ComputeLoops fills Block.LoopDepth using natural loops: for every back
// edge u→h (where h dominates u), all blocks that reach u without passing
// through h belong to h's loop. Depth is the number of distinct loop headers
// whose loop contains the block. It returns the set of loop headers.
func (f *Func) ComputeLoops(dom *Dominance) []int {
	var s Scratch
	depth, headers := s.loops(f, dom)
	for i, b := range f.Blocks {
		b.LoopDepth = depth[i]
	}
	return headers
}

// LoopDepths returns the natural-loop nesting depth of every block of f, as
// ComputeLoops would store it, without writing to f: a driver allocating a
// caller's function keeps its analyses to itself. The slice is valid until
// the scratch computes loops again.
func (s *Scratch) LoopDepths(f *Func, dom *Dominance) []int {
	depth, _ := s.loops(f, dom)
	return depth
}

// loops computes the block loop depths into the scratch and returns them
// with the loop headers (nil when f has no loop), in discovery order.
func (s *Scratch) loops(f *Func, dom *Dominance) (depth, headers []int) {
	n := len(f.Blocks)
	s.depth = grow(s.depth, n)
	depth = s.depth
	clear(depth)
	s.isHeader = grow(s.isHeader, n)
	isHeader := s.isHeader
	clear(isHeader)
	headers = s.headers[:0]
	for _, b := range f.Blocks {
		for _, h := range b.Succs {
			if dom.Dominates(h, b.ID) && !isHeader[h] {
				isHeader[h] = true
				headers = append(headers, h)
			}
		}
	}
	s.headers = headers
	if len(headers) == 0 {
		return depth, nil
	}
	// One membership sweep per header: the union of the natural loops of
	// its back edges, bumping the depth of every member.
	s.inLoop = grow(s.inLoop, n)
	inLoop := s.inLoop
	stack := s.stack[:0]
	for _, h := range headers {
		clear(inLoop)
		inLoop[h] = true
		for _, b := range f.Blocks {
			for _, succ := range b.Succs {
				if succ != h || !dom.Dominates(h, b.ID) {
					continue
				}
				// Collect the natural loop of back edge b→h.
				stack = append(stack[:0], b.ID)
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if inLoop[x] {
						continue
					}
					inLoop[x] = true
					for _, p := range f.Blocks[x].Preds {
						if !inLoop[p] {
							stack = append(stack, p)
						}
					}
				}
			}
		}
		for b, in := range inLoop {
			if in {
				depth[b]++
			}
		}
	}
	s.stack = stack
	return depth, headers
}
