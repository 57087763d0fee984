package dataflow

// Graph is the abstract CFG view the solver works on: blocks are numbered
// 0..N-1 with block 0 the entry. Both the IR CFG and the machine-code CFG
// implement it by exporting successor/predecessor index slices.
type Graph struct {
	N     int
	Succs [][]int
	Preds [][]int
}

// Direction of a data-flow problem.
type Direction int

// Problem directions.
const (
	Forward Direction = iota
	Backward
)

// Meet operator of a data-flow problem.
type Meet int

// Meet operators: Union computes a "may" (some-path) solution, Intersect a
// "must" (all-paths) solution.
const (
	Union Meet = iota
	Intersect
)

// Problem is a gen/kill bit-vector data-flow problem:
//
//	out[b] = gen[b] ∪ (in[b] − kill[b])       (forward)
//	in[b]  = meet over preds' out (forward)
//
// The boundary value is the empty set: it is the in-set of block 0
// (forward) and the out-set of every block with no successors (backward).
type Problem struct {
	Graph     Graph
	Dir       Direction
	Meet      Meet
	Bits      int
	Gen, Kill []*BitSet // per block
}

// Result holds the fixed-point solution.
type Result struct {
	In, Out []*BitSet
}

// Scratch holds the buffers a solve works in: the solution's sets, the
// per-block flags, the default exit list, the visit order and its DFS
// stack, and the direction-resolved views of the solution (flowIn is the
// set entering each block's transfer function, edgesIn the edges the meet
// reads — preds for Forward, succs for Backward). SolveIn resets and
// refills them, so a caller that solves many problems (the optimizer
// solves several per pass) allocates only when a problem outgrows every
// earlier one. Sets hands out problem-input sets from a second slab that
// solving never touches, and DominatorsIn and FindLoopsIn keep their
// buffers apart from the solver's. The zero value is ready to use; a
// Scratch must not be shared between goroutines.
type Scratch struct {
	res             Result
	sol, input      slab
	tmp             *BitSet // SolveIn's scratch set
	entries, exits  []int
	flags           []bool
	isEntry         []bool
	seen, inWork    []bool // visitOrder's and SolveIn's per-block flags
	flowIn, flowOut []*BitSet
	edgesIn         [][]int
	edgesOut        [][]int
	order           []int
	stack           []frame
	dom             domScratch
}

// frame is a visitOrder DFS frame: a block and its next successor index.
type frame struct{ b, i int }

// Sets returns count cleared n-bit sets backed by s — a problem's Gen and
// Kill, say, or a caller's working sets. They stay valid until the next
// Sets call on s; SolveIn does not touch them, so a problem may keep its
// inputs in the scratch that solves it.
func (s *Scratch) Sets(count, n int) []*BitSet {
	s.input.carve(count, n)
	return s.input.pointers()
}

// forwardEntries is the boundary block list of a forward problem; it is
// never modified.
var forwardEntries = []int{0}

// setup resets st for p: initial values, boundary seeding and the
// direction-resolved views SolveIn (and the tests' dense reference
// schedule) start from.
func (p *Problem) setup(st *Scratch) {
	n := p.Graph.N
	// Initial values: for Intersect problems, interior sets start full
	// (top); for Union they start empty (bottom). All 2n sets and the
	// scratch set share one slab.
	st.sol.carve(2*n+1, p.Bits)
	sets := st.sol.pointers()
	st.res.In, st.res.Out = sets[:n:n], sets[n:2*n:2*n]
	st.tmp = sets[2*n]
	if p.Dir == Forward {
		st.entries = forwardEntries
	} else {
		st.exits = st.exits[:0]
		for b := 0; b < n; b++ {
			if len(p.Graph.Succs[b]) == 0 {
				st.exits = append(st.exits, b)
			}
		}
		st.entries = st.exits
	}
	st.flags = resize(st.flags, 3*n)
	clear(st.flags)
	st.isEntry, st.seen, st.inWork = st.flags[:n:n], st.flags[n:2*n:2*n], st.flags[2*n:]
	for _, e := range st.entries {
		st.isEntry[e] = true
	}

	if p.Meet == Intersect {
		for _, s := range sets[:2*n] {
			s.SetAll()
		}
	}

	if p.Dir == Forward {
		st.flowIn, st.flowOut = st.res.In, st.res.Out
		st.edgesIn, st.edgesOut = p.Graph.Preds, p.Graph.Succs
	} else {
		st.flowIn, st.flowOut = st.res.Out, st.res.In
		st.edgesIn, st.edgesOut = p.Graph.Succs, p.Graph.Preds
	}

	// Seed boundary blocks with the empty set; Union sets start empty.
	if p.Meet == Intersect {
		for _, e := range st.entries {
			clear(st.flowIn[e].words)
		}
	}
}

// step applies block b's data-flow equations once, using tmp as scratch.
// It reports whether flowOut[b] changed (i.e. whether b's dependents need
// to be revisited).
func (p *Problem) step(st *Scratch, b int, tmp *BitSet) bool {
	// Meet over incoming edges. Blocks without incoming edges keep their
	// seeded (entry) or initial (unreachable) value, and so does a
	// boundary block of an Intersect problem (a loop header that is also
	// the entry, say): its meet includes the empty boundary value. Under
	// Union the empty boundary adds nothing to the meet.
	if len(st.edgesIn[b]) > 0 && !(st.isEntry[b] && p.Meet == Intersect) {
		first := true
		for _, pb := range st.edgesIn[b] {
			if first {
				tmp.CopyFrom(st.flowOut[pb])
				first = false
			} else if p.Meet == Union {
				tmp.Union(st.flowOut[pb])
			} else {
				tmp.Intersect(st.flowOut[pb])
			}
		}
		if !tmp.Equal(st.flowIn[b]) {
			st.flowIn[b].CopyFrom(tmp)
		}
	}
	// Transfer: out = gen ∪ (in − kill).
	tmp.CopyFrom(st.flowIn[b])
	if p.Kill != nil && p.Kill[b] != nil {
		tmp.Subtract(p.Kill[b])
	}
	if p.Gen != nil && p.Gen[b] != nil {
		tmp.Union(p.Gen[b])
	}
	if !tmp.Equal(st.flowOut[b]) {
		st.flowOut[b].CopyFrom(tmp)
		return true
	}
	return false
}

// visitOrder returns the blocks in reverse postorder of the traversal
// graph the solver propagates along: successors for Forward problems
// (classic RPO), predecessors for Backward problems (postorder of the
// original CFG). Blocks unreachable from the entries are appended in
// index order so they still receive their (boundary-independent) local
// solution, exactly as the reference solver computes it.
func (p *Problem) visitOrder(st *Scratch) []int {
	n := p.Graph.N
	order := resize(st.order, n)[:0]
	seen := st.seen
	// Iterative DFS; frame = (block, next successor index).
	stack := resize(st.stack, n)[:0]
	for _, root := range st.entries {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(st.edgesOut[f.b]) {
				s := st.edgesOut[f.b][f.i]
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
	}
	// order is postorder; reverse to get RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for b := 0; b < n; b++ {
		if !seen[b] {
			order = append(order, b)
		}
	}
	st.order, st.stack = order, stack
	return order
}

// Solve runs a worklist iteration to the fixed point, visiting blocks in
// reverse postorder of the propagation direction (RPO of the CFG for
// forward problems, RPO of the reversed CFG — i.e. postorder — for
// backward problems), so on a reducible CFG most facts propagate in a
// single sweep and the loop converges in O(loop-nesting depth) sweeps.
//
// The worklist is an in-worklist bitmap swept in that fixed order: a
// block is re-processed only if one of the blocks feeding its meet
// changed since the block was last visited. Termination: the transfer
// functions out = gen ∪ (in − kill) and the meets are monotone on the
// finite lattice of bit vectors, every set moves monotonically (upward
// for Union from ⊥, downward for Intersect from ⊤), and a block is
// re-queued only after an actual change, so the number of re-visits is
// bounded by Bits·N and the iteration reaches the same unique fixed
// point as a dense round-robin schedule, which the differential tests
// hold it to.
func (p *Problem) Solve() *Result { return p.SolveIn(new(Scratch)) }

// SolveIn is Solve working in s's buffers. The result is backed by s: it
// stays valid until the next SolveIn on s.
func (p *Problem) SolveIn(st *Scratch) *Result {
	p.setup(st)
	n := p.Graph.N
	order := p.visitOrder(st)

	inWork := st.inWork
	for b := range inWork {
		inWork[b] = true
	}
	remaining := n
	tmp := st.tmp
	for remaining > 0 {
		for _, b := range order {
			if !inWork[b] {
				continue
			}
			inWork[b] = false
			remaining--
			if p.step(st, b, tmp) {
				for _, s := range st.edgesOut[b] {
					if !inWork[s] {
						inWork[s] = true
						remaining++
					}
				}
			}
		}
	}
	return &st.res
}
