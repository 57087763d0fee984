package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// pre performs partial redundancy elimination in two layers:
//
//  1. Assignment-level PRE on source-variable assignments "V = E": a fully
//     redundant assignment is deleted and replaced by a MarkAvail marker
//     (its value is already in V on every path); a partially redundant one
//     is made fully redundant by inserting copies of the assignment on the
//     predecessor edges where it is missing — the inserted copies are
//     annotated Hoisted and are exactly the paper's "hoisted expressions"
//     (Figure 2's E3), while the deleted occurrence is the "redundant copy"
//     whose marker kills hoist reach.
//
//  2. Expression-level CSE/PRE on temp computations "t = E": occurrences
//     are routed through a canonical temp per expression; redundant
//     computations collapse to copies; partially redundant ones get edge
//     insertions (hoisted temp computations — address arithmetic, mostly,
//     matching the paper's observation that cmcc hoisted mainly address
//     computations).
//
// Reports whether anything changed.
func pre(ws *workspace, f *ir.Func) bool {
	changed := false
	// Layer 1 must reach its fixed point first: the expression CSE below
	// rewrites "V = E" into copy form, destroying the assignment pattern
	// that layer 1's markers and hoisted insertions are generated from.
	for i := 0; i < 8; i++ {
		if !preVarAssignments(ws, f) {
			break
		}
		changed = true
	}
	for i := 0; i < 8; i++ {
		if !cseTemps(ws, f) {
			break
		}
		changed = true
	}
	return changed
}

// keyable reports whether in is an assignment whose value can be keyed for
// redundancy analysis (pure computation over Const/Var/Temp operands).
func keyable(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp, ir.UnOp, ir.Copy, ir.Addr:
		return in.HasDst()
	}
	return false
}

// selfRef reports whether in reads its own destination (e.g. x = x + 1);
// such assignments never generate availability of their key.
func selfRef(in *ir.Instr) bool {
	var buf [4]ir.Operand
	for _, u := range in.Uses(buf[:0]) {
		if u.Same(in.Dst) {
			return true
		}
	}
	return false
}

// preVarAssignments implements layer 1.
func preVarAssignments(ws *workspace, f *ir.Func) bool {
	sp := spaceOf(f)

	// Key every assignment once; keys[n] is the table index of the n-th
	// instruction in block order, or -1.
	table := ws.exprTable()
	keys := ws.keys[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			key := -1
			if keyable(in) && in.Dst.Kind == ir.Var && !selfRef(in) && in.Kind != ir.Copy {
				key = table.intern(in.AssignKey(), in)
			}
			keys = append(keys, key)
		}
	}
	ws.keys = keys
	if table.size() == 0 {
		return false
	}
	km := ws.killMap(table.sample, sp, true) // defs of V and of E's operands kill

	g := ws.graphOf(f)
	gen, kill, avail, pav := ws.genKill(f, table.size(), sp, km, keys)

	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill}).SolveIn(&ws.must)
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: table.size(), Gen: gen, Kill: kill}).SolveIn(&ws.may)

	changed := false
	inserts := ws.inserts[:0]
	n := 0
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		pav.CopyFrom(may.In[bi])
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key := keys[n]
			n++
			if key >= 0 && !in.Ann.Hoisted && !in.Ann.Sunk {
				if avail.Has(key) {
					// Fully redundant source assignment: delete, leaving an
					// availability marker (§3, "code deletion").
					b.Instrs[pos] = &ir.Instr{
						Kind:    ir.MarkAvail,
						MarkObj: f.Obj(in.Dst),
						Stmt:    in.Stmt,
						OrigIdx: in.OrigIdx,
					}
					changed = true
					continue // marker has no transfer effect
				}
				if pav.Has(key) && upwardExposed(b, pos, sp, km, key) && len(b.Preds) > 1 {
					// Partially redundant: insert hoisted copies on the
					// incoming edges that lack availability.
					for _, p := range b.Preds {
						pi := blockIndex(f, p)
						if must.Out[pi].Has(key) {
							continue
						}
						h := in.Clone()
						h.Ann.Hoisted = true
						h.Ann.InsertedBy = "pre"
						h.OrigIdx = f.NextOrig()
						inserts = append(inserts, insertion{from: p, to: b, instr: h})
					}
				}
			}
			stepAvail(avail, sp, km, in, key)
			stepAvail(pav, sp, km, in, key)
		}
	}

	ws.inserts = inserts
	return insertAll(f, inserts) || changed
}

// insertion is an instruction PRE places on the edge from -> to.
type insertion struct {
	from, to *ir.Block
	instr    *ir.Instr
}

// insertAll places every insertion on its edge and reports whether there
// was any.
func insertAll(f *ir.Func, inserts []insertion) bool {
	for _, ins := range inserts {
		insertOnEdge(f, ins.from, ins.to, ins.instr)
	}
	if len(inserts) > 0 {
		f.RecomputePreds()
	}
	return len(inserts) > 0
}

// upwardExposed reports whether the key's operands and destination are not
// redefined in b before position pos (so edge insertion is equivalent to
// executing the assignment at pos).
func upwardExposed(b *ir.Block, pos int, sp valueSpace, km killMap, key int) bool {
	for _, in := range b.Instrs[:pos] {
		for _, e := range km.killedByDef(sp, in) {
			if e == key {
				return false
			}
		}
	}
	return true
}

// genKill builds per-block gen/kill sets for an availability problem
// over nb expression keys; keys[n] is the key the n-th instruction in
// block order generates, or -1. It also returns two cleared nb-bit
// working sets. All four live in ws.must's sets, valid until the next
// genKill.
func (ws *workspace) genKill(f *ir.Func, nb int, sp valueSpace, km killMap, keys []int) (gen, kill []*dataflow.BitSet, avail, pav *dataflow.BitSet) {
	nbl := len(f.Blocks)
	sets := ws.must.Sets(2*nbl+2, nb)
	gen, kill = sets[:nbl:nbl], sets[nbl:2*nbl:2*nbl]
	n := 0
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, e := range km.killedByDef(sp, in) {
				gen[bi].Clear(e)
				kill[bi].Set(e)
			}
			if k := keys[n]; k >= 0 {
				gen[bi].Set(k)
				kill[bi].Clear(k)
			}
			n++
		}
	}
	return gen, kill, sets[2*nbl], sets[2*nbl+1]
}

// stepAvail applies one instruction's transfer to an availability set:
// in's definition kills, then key (if >= 0) is generated.
func stepAvail(s *dataflow.BitSet, sp valueSpace, km killMap, in *ir.Instr, key int) {
	for _, e := range km.killedByDef(sp, in) {
		s.Clear(e)
	}
	if key >= 0 {
		s.Set(key)
	}
}

func blockIndex(f *ir.Func, b *ir.Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// insertOnEdge places instr on the edge from -> to: appended at the end of
// `from` when `to` is its only successor, otherwise on a freshly split edge
// block (preserving branch-target order).
func insertOnEdge(f *ir.Func, from, to *ir.Block, instr *ir.Instr) {
	if len(from.Succs) == 1 {
		from.AppendBeforeTerm(instr)
		return
	}
	m := f.NewBlock()
	j := &ir.Instr{Kind: ir.Jmp, Stmt: -1, OrigIdx: f.NextOrig()}
	m.Instrs = []*ir.Instr{instr, j}
	m.Succs = []*ir.Block{to}
	from.ReplaceSucc(to, m)
}

// ---------------------------------------------------------------- layer 2

// exprRec is cseTemps' record of one expression key: how often it occurs,
// and the temp every occurrence writes (e.g. from a previous CSE round),
// or NoOpd when the destinations are mixed or not a temp.
type exprRec struct {
	count int
	dst   ir.Operand
	idx   int // table index, or -1 for a single occurrence
}

// cseTemps implements layer 2: expression CSE/PRE through canonical temps.
func cseTemps(ws *workspace, f *ir.Func) bool {
	sp := spaceOf(f)

	// Key every candidate occurrence once, in block order. The table and
	// recs hold one sample and record per distinct key in
	// first-occurrence order; occ[i] is the record of the i-th occurrence.
	// Temp or var destinations both supply values; only multi-occurrence
	// keys are worth a canonical temp.
	table := ws.exprTable()
	recs := ws.recs[:0]
	occ := ws.occ[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !keyable(in) || in.Kind == ir.Copy {
				continue
			}
			ri := table.intern(in.ExprKey(), in)
			if ri == len(recs) {
				recs = append(recs, exprRec{dst: in.Dst})
			}
			r := &recs[ri]
			r.count++
			if in.Dst.Kind != ir.Temp || !r.dst.Same(in.Dst) {
				r.dst = ir.Operand{}
			}
			occ = append(occ, ri)
		}
	}
	ws.recs, ws.occ = recs, occ

	// Canonical temp per key, in table order. When every occurrence of a
	// key already writes the same temp, reuse it — otherwise each round
	// would wrap another copy layer around the value.
	samples := ws.samples[:0]
	canon := ws.operands[:0]
	for ri := range recs {
		r := &recs[ri]
		r.idx = -1
		if r.count < 2 {
			continue
		}
		r.idx = len(samples)
		sample := table.sample[ri]
		samples = append(samples, sample)
		c := r.dst
		if c.Kind != ir.Temp {
			c = f.NewTemp(sample.Dst.Ty)
		}
		canon = append(canon, c)
	}
	ws.samples, ws.operands = samples, canon
	if len(samples) == 0 {
		return false
	}

	// Rewrite every occurrence "d = E" (d != canon) into
	// "hE = E; d = copy hE" so availability implies the value sits in hE.
	// Afterwards every keyed occurrence writes its canonical temp, and
	// those that do not read it generate availability of their key:
	// keys[n] is the key the n-th instruction in block order generates.
	// A fresh canonical temp is always written by a rewrite, so changed
	// covers the NewTemp calls above too.
	changed := false
	keys := ws.keys[:0]
	next := 0 // index into occ: the blocks are walked in the same order
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			keys = append(keys, -1)
			if !keyable(in) || in.Kind == ir.Copy {
				continue // including the copies inserted below
			}
			key := recs[occ[next]].idx
			next++
			if key < 0 {
				continue
			}
			if !in.Dst.Same(canon[key]) {
				// Replace in place: in becomes hE = E; a copy follows.
				cp := &ir.Instr{
					Kind: ir.Copy, Dst: in.Dst, A: canon[key],
					Stmt: in.Stmt, OrigIdx: f.NextOrig(),
				}
				cp.Ann = in.Ann
				cp.Ann.InsertedBy = "cse"
				in.Dst = canon[key]
				b.InsertBefore(pos+1, cp)
				changed = true
			}
			if !selfRef(in) {
				keys[len(keys)-1] = key
			}
		}
	}
	ws.keys = keys

	// Availability of keys now means "canon[key] holds the value".
	km := ws.killMap(samples, sp, false)
	g := ws.graphOf(f)
	gen, kill, avail, pav := ws.genKill(f, len(samples), sp, km, keys)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: len(samples), Gen: gen, Kill: kill}).SolveIn(&ws.must)
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: len(samples), Gen: gen, Kill: kill}).SolveIn(&ws.may)

	inserts := ws.inserts[:0]
	n := 0
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		pav.CopyFrom(may.In[bi])
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key := keys[n]
			n++
			if key >= 0 && !in.Ann.Hoisted {
				if avail.Has(key) {
					// hE already holds the value: drop the recomputation.
					// Temps are invisible to the user, so no marker is
					// needed; the following copy got in.Ann at rewrite.
					b.RemoveAt(pos)
					pos--
					changed = true
					continue
				}
				if pav.Has(key) && upwardExposed(b, pos, sp, km, key) && len(b.Preds) > 1 {
					for _, p := range b.Preds {
						pi := blockIndex(f, p)
						if pi < 0 || must.Out[pi].Has(key) {
							continue
						}
						h := in.Clone()
						h.Ann.Hoisted = true
						h.Ann.InsertedBy = "pre"
						h.OrigIdx = f.NextOrig()
						inserts = append(inserts, insertion{from: p, to: b, instr: h})
					}
				}
			}
			stepAvail(avail, sp, km, in, key)
			stepAvail(pav, sp, km, in, key)
		}
	}
	ws.inserts = inserts
	return insertAll(f, inserts) || changed
}
