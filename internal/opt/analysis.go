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
// position in f.Blocks.
func graphOf(f *ir.Func) (dataflow.Graph, map[*ir.Block]int) {
	idx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	g := dataflow.Graph{
		N:     len(f.Blocks),
		Succs: make([][]int, len(f.Blocks)),
		Preds: make([][]int, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			g.Succs[i] = append(g.Succs[i], idx[s])
		}
		for _, p := range b.Preds {
			g.Preds[i] = append(g.Preds[i], idx[p])
		}
	}
	return g, idx
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

// isVarIndex reports whether a dense index denotes a source variable.
func (s valueSpace) isVarIndex(i int) bool { return i < s.numVars }

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
	g, _ := graphOf(f)
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

// liveAcross walks block b backwards and reports, for each instruction
// index, the set of values live immediately AFTER that instruction. The
// returned slice is indexed by instruction position.
func (lv *liveness) liveAfter(f *ir.Func, bi int) []*dataflow.BitSet {
	b := f.Blocks[bi]
	out := make([]*dataflow.BitSet, len(b.Instrs))
	cur := lv.LiveOut[bi].Copy()
	var buf []ir.Operand
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		out[i] = cur.Copy()
		in := b.Instrs[i]
		if in.HasDst() {
			if k := lv.space.indexOf(in.Dst); k >= 0 {
				cur.Clear(k)
			}
		}
		buf = in.Uses(buf[:0])
		for _, o := range buf {
			if k := lv.space.indexOf(o); k >= 0 {
				cur.Set(k)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------- expr keys

// exprTable interns expression keys to dense indices for availability
// problems.
type exprTable struct {
	keys  []ir.ExprKey
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
	i := len(t.keys)
	t.index[key] = i
	t.keys = append(t.keys, key)
	t.sample = append(t.sample, in)
	return i
}

func (t *exprTable) lookup(key ir.ExprKey) (int, bool) {
	i, ok := t.index[key]
	return i, ok
}

func (t *exprTable) size() int { return len(t.keys) }

// operandsKilledBy reports whether a def of value index k invalidates the
// expression with table index e (i.e. k is an operand of e's sample, or k
// is the destination when tracking assignment-availability).
type killMap struct {
	// killedBy[k] lists expression indices invalidated by defining k.
	killedBy map[int][]int
}

func buildKillMap(t *exprTable, sp valueSpace, includeDst bool) *killMap {
	km := &killMap{killedBy: map[int][]int{}}
	var buf []ir.Operand
	for ei, in := range t.sample {
		buf = in.Uses(buf[:0])
		for _, o := range buf {
			if k := sp.indexOf(o); k >= 0 {
				km.killedBy[k] = append(km.killedBy[k], ei)
			}
		}
		if includeDst && in.HasDst() {
			if k := sp.indexOf(in.Dst); k >= 0 {
				km.killedBy[k] = append(km.killedBy[k], ei)
			}
		}
	}
	return km
}
