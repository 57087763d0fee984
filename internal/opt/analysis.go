// Package opt implements mcc's global scalar optimizations — the passes of
// Table 1 of the paper — together with the §3 bookkeeping: inserted code is
// annotated Hoisted/Sunk, deleted source-level assignments leave marker
// pseudo-instructions, and expressions that replace fetches of source
// variables record the variable for recovery.
package opt

import (
	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// graphOf builds the dataflow.Graph view of a function. Block index =
// position in f.Blocks; an edge to a block outside f.Blocks goes to 0.
func graphOf(f *ir.Func) dataflow.Graph {
	maxID, nEdges := 0, 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
		nEdges += len(b.Succs) + len(b.Preds)
	}
	pos := make([]int, maxID+1) // by block ID
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
	g := dataflow.Graph{N: n, Succs: make([][]int, n), Preds: make([][]int, n)}
	edges := make([]int, 0, nEdges)
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
		return o.Obj.ID
	case ir.Temp:
		return s.numVars + o.TID
	}
	return -1
}

// varOf returns the object for a var index.
func (s valueSpace) varOf(i int) *ast.Object { return s.fn.Decl.Locals[i] }

// ---------------------------------------------------------------- liveness

// liveness computes per-block LiveIn/LiveOut over the value space. Source
// variables are additionally considered live at every point inside their
// syntactic scope when keepVarsLive is set (used before register allocation
// decisions that must not delete values the debugger still addresses).
type liveness struct {
	space   valueSpace
	LiveIn  []*dataflow.BitSet
	LiveOut []*dataflow.BitSet
}

// computeLiveness solves backward may-liveness.
func computeLiveness(f *ir.Func) *liveness {
	g := graphOf(f)
	sp := spaceOf(f)
	n := sp.size()
	use := make([]*dataflow.BitSet, g.N)
	def := make([]*dataflow.BitSet, g.N)
	var buf []ir.Operand
	for i, b := range f.Blocks {
		use[i] = dataflow.NewBitSet(n)
		def[i] = dataflow.NewBitSet(n)
		for _, in := range b.Instrs {
			buf = in.Uses(buf[:0])
			for _, o := range buf {
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
	res := p.Solve()
	return &liveness{space: sp, LiveIn: res.In, LiveOut: res.Out}
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

func newExprTable() *exprTable { return &exprTable{index: map[ir.ExprKey]int{}} }

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

func buildKillMap(samples []*ir.Instr, sp valueSpace, includeDst bool) killMap {
	km := make(killMap, sp.size())
	var buf []ir.Operand
	for ei, in := range samples {
		buf = in.Uses(buf[:0])
		for _, o := range buf {
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
