// Package opt implements mcc's global scalar optimizations — the passes of
// Table 1 of the paper — together with the §3 bookkeeping: inserted code is
// annotated Hoisted/Sunk, deleted source-level assignments leave marker
// pseudo-instructions, and expressions that replace fetches of source
// variables record the variable for recovery.
package opt

import (
	"slices"

	"repro/internal/dataflow"
	"repro/internal/ir"
)

// workspace is the scratch one function's pass applications share: the
// CFG view, the solver scratch, liveness, expression tables, kill maps and
// the per-instruction and per-value slices the passes key f with. A pass
// takes the buffers it needs, resets them (clears the map, re-slices to
// [:0], carves its bitsets again) and fills them from f, so the buffers
// grow to the function's largest use and later pass applications allocate
// only what they add to f. Every use recomputes: nothing a pass leaves in
// the workspace is read by the next one. RunFunc makes one workspace per
// function, so functions optimized concurrently share nothing.
type workspace struct {
	pos, edges []int   // graphOf
	adj        [][]int // graphOf's Succs and Preds
	// live solves liveness, must and may the availability problems; each
	// one's Sets hold that problem's gen/kill and working sets.
	live, must, may dataflow.Scratch
	loops           dataflow.Scratch // dominators and loops
	lv              liveness
	uses            []ir.Operand // usesOf
	table           exprTable
	km              killMap
	byValue         [][]int // per value index, candidate keys
	keys, occ       []int
	samples         []*ir.Instr
	operands        []ir.Operand
	snaps           []ir.Instr
	recs            []exprRec
	inserts         []insertion
	marks           []bool // FaintDCE's marks
	elimMarks       []bool // the eliminator's deleted and hoisted values
	chainSeen       []bool // chainBranches' visited blocks by ID, clear between chains
	chain           []int  // the IDs chainSeen marks
}

// resize returns s with length n. It reuses s's array when it is large
// enough and otherwise grows it as append does, so a buffer that grows a
// little per use is not reallocated every time. The contents are not
// cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// usesOf returns in's Var and Temp operands, valid until the next usesOf.
func (ws *workspace) usesOf(in *ir.Instr) []ir.Operand {
	ws.uses = in.Uses(ws.uses[:0])
	return ws.uses
}

// graphOf builds the dataflow.Graph view of f, valid until the next
// graphOf. Block index = position in f.Blocks; an edge to a block outside
// f.Blocks goes to 0.
func (ws *workspace) graphOf(f *ir.Func) dataflow.Graph {
	maxID, nEdges := 0, 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
		nEdges += len(b.Succs) + len(b.Preds)
	}
	pos := resize(ws.pos, maxID+1) // by block ID
	clear(pos)
	for i, b := range f.Blocks {
		pos[b.ID] = i
	}
	at := func(b *ir.Block) int {
		if b.ID < len(pos) && f.Blocks[pos[b.ID]] == b {
			return pos[b.ID]
		}
		return 0
	}
	n := len(f.Blocks)
	adj := resize(ws.adj, 2*n)
	g := dataflow.Graph{N: n, Succs: adj[:n:n], Preds: adj[n:]}
	edges := resize(ws.edges, nEdges)[:0]
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			edges = append(edges, at(s))
		}
		g.Succs[i] = edges[len(edges)-len(b.Succs) : len(edges) : len(edges)]
		for _, p := range b.Preds {
			edges = append(edges, at(p))
		}
		g.Preds[i] = edges[len(edges)-len(b.Preds) : len(edges) : len(edges)]
	}
	ws.pos, ws.adj, ws.edges = pos, adj, edges
	return g
}

// numInstrs counts f's instructions, to size per-instruction slices.
func numInstrs(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// valueSpace maps Var and Temp operands to dense indices:
// vars (by Object.ID) occupy [0, numVars), temps [numVars, numVars+NumTemps).
type valueSpace struct {
	fn      *ir.Func
	numVars int
}

func spaceOf(f *ir.Func) valueSpace {
	return valueSpace{fn: f, numVars: len(f.Decl.Locals)}
}

func (s valueSpace) size() int { return s.numVars + s.fn.NumTemps }

// indexOf returns the dense index of a Var/Temp operand, or -1.
func (s valueSpace) indexOf(o ir.Operand) int {
	switch o.Kind {
	case ir.Var:
		return int(o.ID)
	case ir.Temp:
		return s.numVars + int(o.ID)
	}
	return -1
}

// ---------------------------------------------------------------- liveness

// liveness holds per-block LiveIn/LiveOut over the value space, and a
// spare set of the same size for walking a block backward.
type liveness struct {
	space   valueSpace
	LiveIn  []*dataflow.BitSet
	LiveOut []*dataflow.BitSet
	spare   *dataflow.BitSet
}

// liveness solves backward may-liveness in ws.live. The result is valid
// until the next liveness call.
func (ws *workspace) liveness(f *ir.Func) *liveness {
	g := ws.graphOf(f)
	sp := spaceOf(f)
	n := sp.size()
	sets := ws.live.Sets(2*g.N+1, n)
	use, def := sets[:g.N:g.N], sets[g.N:2*g.N:2*g.N]
	for i, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, o := range ws.usesOf(in) {
				if k := sp.indexOf(o); k >= 0 && !def[i].Has(k) {
					use[i].Set(k)
				}
			}
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					def[i].Set(k)
				}
			}
		}
	}
	p := dataflow.Problem{
		Graph: g, Dir: dataflow.Backward, Meet: dataflow.Union, Bits: n,
		Gen: use, Kill: def,
	}
	res := p.SolveIn(&ws.live)
	ws.lv = liveness{space: sp, LiveIn: res.In, LiveOut: res.Out, spare: sets[2*g.N]}
	return &ws.lv
}

// ---------------------------------------------------------------- expr keys

// exprTable interns expression keys to dense indices for availability
// problems.
type exprTable struct {
	index map[ir.ExprKey]int
	// sample holds one representative instruction per key, used to clone
	// computations during PRE insertion.
	sample []*ir.Instr
}

// exprTable returns ws's expression table, emptied.
func (ws *workspace) exprTable() *exprTable {
	if ws.table.index == nil {
		ws.table.index = map[ir.ExprKey]int{}
	}
	clear(ws.table.index)
	ws.table.sample = ws.table.sample[:0]
	return &ws.table
}

func (t *exprTable) intern(key ir.ExprKey, in *ir.Instr) int {
	if i, ok := t.index[key]; ok {
		return i
	}
	i := len(t.sample)
	t.index[key] = i
	t.sample = append(t.sample, in)
	return i
}

// lookup returns key's index, or -1.
func (t *exprTable) lookup(key ir.ExprKey) int {
	if i, ok := t.index[key]; ok {
		return i
	}
	return -1
}

func (t *exprTable) size() int { return len(t.sample) }

// killMap lists, per value index k, the expression indices invalidated by
// defining k (k is an operand of the expression's sample, or its
// destination when tracking assignment-availability).
type killMap [][]int

// killMap builds the kill map of samples over sp in ws's buffers, valid
// until the next killMap call.
func (ws *workspace) killMap(samples []*ir.Instr, sp valueSpace, includeDst bool) killMap {
	km := emptyLists(&ws.km, sp.size())
	for ei, in := range samples {
		for _, o := range ws.usesOf(in) {
			if k := sp.indexOf(o); k >= 0 {
				km[k] = append(km[k], ei)
			}
		}
		if includeDst && in.HasDst() {
			if k := sp.indexOf(in.Dst); k >= 0 {
				km[k] = append(km[k], ei)
			}
		}
	}
	return km
}

// emptyLists resizes *lists to n empty lists, keeping each list's array.
func emptyLists[L ~[][]int](lists *L, n int) L {
	l := resize(*lists, n)
	for i := range l {
		l[i] = l[i][:0]
	}
	*lists = l
	return l
}

// killedByDef returns the expressions in's definition invalidates.
func (km killMap) killedByDef(sp valueSpace, in *ir.Instr) []int {
	if !in.HasDst() {
		return nil
	}
	if k := sp.indexOf(in.Dst); k >= 0 {
		return km[k]
	}
	return nil
}
