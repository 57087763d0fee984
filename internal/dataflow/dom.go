package dataflow

// DomTree holds immediate dominators for a Graph.
type DomTree struct {
	// IDom[b] is the immediate dominator of b, or -1 for the root and for
	// unreachable blocks.
	IDom []int
}

// domScratch holds the buffers DominatorsIn and FindLoopsIn work in,
// apart from the ones SolveIn uses.
type domScratch struct {
	tree      DomTree
	idom      []int
	order     []int // reverse postorder from the entry
	rpoNum    []int
	seen      []bool
	stack     []frame
	backEdges []int // FindLoopsIn's back edges, latch then header
	loops     []Loop
	loopPtrs  []*Loop
	bodies    slab
	latches   []int
	walk      []int // a loop body's backward walk
	depth     []int
}

// DominatorsIn computes the dominator tree of g rooted at entry using the
// iterative algorithm of Cooper, Harvey & Kennedy over a reverse-postorder
// numbering, working in st's buffers. The tree is backed by st: it stays
// valid until the next DominatorsIn or FindLoopsIn on st. Solving on st
// does not touch it.
func DominatorsIn(st *Scratch, g Graph, entry int) *DomTree {
	n, succs, preds := g.N, g.Succs, g.Preds
	d := &st.dom
	// Reverse postorder from entry: an iterative DFS visiting successors
	// in order, which yields the postorder a recursive walk would.
	seen := resize(d.seen, n)
	clear(seen)
	order := resize(d.order, n)[:0]
	stack := resize(d.stack, n)[:0]
	seen[entry] = true
	stack = append(stack, frame{entry, 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(succs[f.b]) {
			s := succs[f.b][f.i]
			f.i++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := resize(d.rpoNum, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	idom := resize(d.idom, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if rpoNum[p] < 0 || idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = -1
	d.seen, d.order, d.stack, d.rpoNum, d.idom = seen, order, stack, rpoNum, idom
	d.tree = DomTree{IDom: idom}
	return &d.tree
}

// Dominates reports whether a dominates b (reflexive).
func (t *DomTree) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.IDom[b]
	}
	return false
}

// Loop is one natural loop.
type Loop struct {
	Header int
	// Blocks holds every block in the loop body (including the header);
	// ask with In.
	Blocks *BitSet
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Preheader is filled by the optimizer when it inserts one (-1 if
	// absent).
	Preheader int
	// Parent loop index in the Loops slice, or -1 for top-level loops.
	Parent int
	Depth  int

	size int // the number of blocks in the body
}

// In reports whether block b is in the loop body. A block outside the
// graph the loop was found in (a negative index, or one added since) is
// not.
func (l *Loop) In(b int) bool { return uint(b) < uint(l.Blocks.Len()) && l.Blocks.Has(b) }

// FindLoops detects natural loops (back edges whose target dominates the
// source) and computes per-block loop depth. Loops sharing a header are
// merged.
func FindLoops(g Graph, entry int) (loops []*Loop, depth []int) {
	return FindLoopsIn(new(Scratch), g, entry)
}

// FindLoopsIn is FindLoops working in st's buffers. The loops and depths
// are backed by st: they stay valid until the next FindLoopsIn on st, and
// a DominatorsIn or SolveIn on st leaves them alone.
func FindLoopsIn(st *Scratch, g Graph, entry int) (loops []*Loop, depth []int) {
	dom := DominatorsIn(st, g, entry)
	d := &st.dom
	// Back edges b -> s, in block then successor order; a loop per header,
	// in the order its first back edge appears.
	back := d.backEdges[:0]
	d.loops = d.loops[:0]
	for b := 0; b < g.N; b++ {
		for _, s := range g.Succs[b] {
			if !dom.Dominates(s, b) {
				continue
			}
			back = append(back, b, s)
			known := false
			for i := range d.loops {
				known = known || d.loops[i].Header == s
			}
			if !known {
				d.loops = append(d.loops, Loop{Header: s, Preheader: -1, Parent: -1})
			}
		}
	}
	d.backEdges = back
	bodies := d.bodies.carve(len(d.loops), g.N)
	d.loopPtrs = resize(d.loopPtrs, len(d.loops))
	latches := resize(d.latches, len(back)/2)[:0]
	walk := d.walk[:0]
	for i := range d.loops {
		l := &d.loops[i]
		l.Blocks = &bodies[i]
		l.Blocks.Set(l.Header)
		start := len(latches)
		for e := 0; e < len(back); e += 2 {
			b := back[e]
			if back[e+1] != l.Header {
				continue
			}
			latches = append(latches, b)
			// Collect the loop body: all blocks that reach the latch
			// backwards without passing the header.
			if !l.Blocks.Has(b) {
				l.Blocks.Set(b)
				walk = append(walk, b)
			}
			for len(walk) > 0 {
				x := walk[len(walk)-1]
				walk = walk[:len(walk)-1]
				for _, p := range g.Preds[x] {
					if !l.Blocks.Has(p) {
						l.Blocks.Set(p)
						walk = append(walk, p)
					}
				}
			}
		}
		l.Latches = latches[start:len(latches):len(latches)]
		l.size = l.Blocks.Count()
		d.loopPtrs[i] = l
	}
	d.latches, d.walk = latches, walk
	loops = d.loopPtrs
	// Nesting: loop A is nested in B if A's header is in B's blocks and A != B.
	for i, a := range loops {
		best := -1
		bestSize := 1 << 30
		for j, b := range loops {
			if i == j {
				continue
			}
			if b.In(a.Header) && b.size < bestSize && b.size > a.size {
				best, bestSize = j, b.size
			}
		}
		a.Parent = best
	}
	for _, l := range loops {
		dep := 1
		p := l.Parent
		for p != -1 {
			dep++
			p = loops[p].Parent
		}
		l.Depth = dep
	}
	depth = resize(d.depth, g.N)
	clear(depth)
	for _, l := range loops {
		for b := range depth {
			if l.In(b) && l.Depth > depth[b] {
				depth[b] = l.Depth
			}
		}
	}
	d.depth = depth
	return loops, depth
}
