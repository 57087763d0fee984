package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// PRE performs partial redundancy elimination in two layers:
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
func PRE(f *ir.Func) bool {
	changed := false
	// Layer 1 must reach its fixed point first: the expression CSE below
	// rewrites "V = E" into copy form, destroying the assignment pattern
	// that layer 1's markers and hoisted insertions are generated from.
	for i := 0; i < 8; i++ {
		if !preVarAssignments(f) {
			break
		}
		changed = true
	}
	for i := 0; i < 8; i++ {
		if !cseTemps(f) {
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
	var buf []ir.Operand
	buf = in.Uses(buf)
	for _, u := range buf {
		if u.Same(in.Dst) {
			return true
		}
	}
	return false
}

// preVarAssignments implements layer 1.
func preVarAssignments(f *ir.Func) bool {
	sp := spaceOf(f)

	// Collect assignment keys.
	table := newExprTable()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if keyable(in) && in.Dst.Kind == ir.Var && !selfRef(in) && in.Kind != ir.Copy {
				table.intern(in.AssignKey(), in)
			}
		}
	}
	if table.size() == 0 {
		return false
	}
	km := buildKillMap(table, sp, true) // defs of V and of E's operands kill

	g, _ := graphOf(f)
	gen, kill := genKillFor(f, g.N, table.size(), sp, km, func(in *ir.Instr) (int, bool) {
		if keyable(in) && in.Dst.Kind == ir.Var && !selfRef(in) && in.Kind != ir.Copy {
			return table.lookup(in.AssignKey())
		}
		return 0, false
	})

	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill}).Solve()
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: table.size(), Gen: gen, Kill: kill}).Solve()

	changed := false
	type insertion struct {
		from, to *ir.Block
		instr    *ir.Instr
	}
	var inserts []insertion

	for bi, b := range f.Blocks {
		avail := must.In[bi].Copy()
		pav := may.In[bi].Copy()
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			isCand := keyable(in) && in.Dst.Kind == ir.Var && !selfRef(in) && in.Kind != ir.Copy
			var key int
			if isCand {
				key, _ = table.lookup(in.AssignKey())
			}
			if isCand && !in.Ann.Hoisted && !in.Ann.Sunk {
				if avail.Has(key) {
					// Fully redundant source assignment: delete, leaving an
					// availability marker (§3, "code deletion").
					b.Instrs[pos] = &ir.Instr{
						Kind:    ir.MarkAvail,
						MarkObj: in.Dst.Obj,
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
			// Transfer.
			stepAvail(avail, sp, km, in, table, func(x *ir.Instr) (int, bool) {
				if keyable(x) && x.Dst.Kind == ir.Var && !selfRef(x) && x.Kind != ir.Copy {
					return table.lookup(x.AssignKey())
				}
				return 0, false
			})
			stepAvail(pav, sp, km, in, table, func(x *ir.Instr) (int, bool) {
				if keyable(x) && x.Dst.Kind == ir.Var && !selfRef(x) && x.Kind != ir.Copy {
					return table.lookup(x.AssignKey())
				}
				return 0, false
			})
		}
	}

	for _, ins := range inserts {
		insertOnEdge(f, ins.from, ins.to, ins.instr)
		changed = true
	}
	if len(inserts) > 0 {
		f.RecomputePreds()
	}
	return changed
}

// upwardExposed reports whether the key's operands and destination are not
// redefined in b before position pos (so edge insertion is equivalent to
// executing the assignment at pos).
func upwardExposed(b *ir.Block, pos int, sp valueSpace, km *killMap, key int) bool {
	for i := 0; i < pos; i++ {
		in := b.Instrs[i]
		if !in.HasDst() {
			continue
		}
		if di := sp.indexOf(in.Dst); di >= 0 {
			for _, e := range km.killedBy[di] {
				if e == key {
					return false
				}
			}
		}
	}
	return true
}

// genKillFor builds per-block gen/kill sets for an availability problem
// over nb expression keys.
func genKillFor(f *ir.Func, nBlocks, nb int, sp valueSpace, km *killMap,
	keyOf func(*ir.Instr) (int, bool)) (gen, kill []*dataflow.BitSet) {
	gen = make([]*dataflow.BitSet, nBlocks)
	kill = make([]*dataflow.BitSet, nBlocks)
	for bi, b := range f.Blocks {
		gen[bi] = dataflow.NewBitSet(nb)
		kill[bi] = dataflow.NewBitSet(nb)
		for _, in := range b.Instrs {
			if in.HasDst() {
				if di := sp.indexOf(in.Dst); di >= 0 {
					for _, e := range km.killedBy[di] {
						gen[bi].Clear(e)
						kill[bi].Set(e)
					}
				}
			}
			if k, ok := keyOf(in); ok {
				gen[bi].Set(k)
				kill[bi].Clear(k)
			}
		}
	}
	return gen, kill
}

// stepAvail applies one instruction's transfer to an availability set.
func stepAvail(s *dataflow.BitSet, sp valueSpace, km *killMap, in *ir.Instr,
	_ *exprTable, keyOf func(*ir.Instr) (int, bool)) {
	if in.HasDst() {
		if di := sp.indexOf(in.Dst); di >= 0 {
			for _, e := range km.killedBy[di] {
				if e < s.Len() {
					s.Clear(e)
				}
			}
		}
	}
	if k, ok := keyOf(in); ok && k < s.Len() {
		s.Set(k)
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

// cseTemps implements layer 2: expression CSE/PRE through canonical temps.
func cseTemps(f *ir.Func) bool {
	sp := spaceOf(f)

	// Key every candidate occurrence once, in block order; the loops
	// below walk this list (or the blocks in the same order) instead of
	// re-keying instructions.
	type occurrence struct {
		in  *ir.Instr
		key ir.ExprKey
	}
	var occs []occurrence
	// Count occurrences per expression key (temp or var destinations both
	// supply values; only multi-occurrence keys are worth a canonical temp).
	counts := map[ir.ExprKey]int{}
	samples := map[ir.ExprKey]*ir.Instr{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if keyable(in) && in.Kind != ir.Copy {
				k := in.ExprKey()
				occs = append(occs, occurrence{in, k})
				counts[k]++
				if samples[k] == nil {
					samples[k] = in
				}
			}
		}
	}
	table := newExprTable()
	for _, o := range occs { // deterministic interning order
		if counts[o.key] >= 2 {
			table.intern(o.key, samples[o.key])
		}
	}
	if table.size() == 0 {
		return false
	}

	// Canonical temp per key. When every occurrence of a key already
	// writes the same temp (e.g. from a previous CSE round), reuse it —
	// otherwise each round would wrap another copy layer around the value.
	sharedDst := map[ir.ExprKey]ir.Operand{}
	for _, o := range occs {
		if counts[o.key] < 2 {
			continue
		}
		if prev, seen := sharedDst[o.key]; !seen {
			sharedDst[o.key] = o.in.Dst
		} else if !prev.Same(o.in.Dst) || o.in.Dst.Kind != ir.Temp {
			sharedDst[o.key] = ir.Operand{} // mixed destinations
		}
	}
	canon := make([]ir.Operand, table.size())
	for i, s := range table.sample {
		if d := sharedDst[table.keys[i]]; d.Kind == ir.Temp {
			canon[i] = d
		} else {
			canon[i] = f.NewTemp(s.Dst.Ty)
		}
	}

	// Rewrite every occurrence "d = E" (d != canon) into
	// "hE = E; d = copy hE" so availability implies the value sits in hE.
	// Afterwards every keyed occurrence writes its canonical temp, and
	// those that do not read it generate availability of their key.
	gens := map[*ir.Instr]int{}
	next := 0 // index into occs: the blocks are walked in the same order
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			if !keyable(in) || in.Kind == ir.Copy {
				continue
			}
			key, ok := table.lookup(occs[next].key)
			next++
			if !ok {
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
				pos++
			}
			if !selfRef(in) {
				gens[in] = key
			}
		}
	}

	// Availability of keys now means "canon[key] holds the value".
	km := buildKillMap(table, sp, false)
	g, _ := graphOf(f)
	keyOf := func(in *ir.Instr) (int, bool) {
		k, ok := gens[in]
		return k, ok
	}
	gen, kill := genKillFor(f, g.N, table.size(), sp, km, keyOf)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill}).Solve()
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: table.size(), Gen: gen, Kill: kill}).Solve()

	changed := false
	type insertion struct {
		from, to *ir.Block
		instr    *ir.Instr
	}
	var inserts []insertion

	for bi, b := range f.Blocks {
		avail := must.In[bi].Copy()
		pav := may.In[bi].Copy()
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key, isCand := keyOf(in)
			if isCand && !in.Ann.Hoisted {
				if avail.Has(key) {
					// hE already holds the value: drop the recomputation.
					// Temps are invisible to the user, so no marker is
					// needed; but keep recovery annotations alive by
					// moving them to the following copy if present.
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
			stepAvail(avail, sp, km, in, table, keyOf)
			stepAvail(pav, sp, km, in, table, keyOf)
		}
	}
	for _, ins := range inserts {
		insertOnEdge(f, ins.from, ins.to, ins.instr)
		changed = true
	}
	if len(inserts) > 0 {
		f.RecomputePreds()
	}
	return changed
}
