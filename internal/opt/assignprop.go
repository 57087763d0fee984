package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// assignProp performs assignment propagation (cmcc performs it "to improve
// partial redundancy elimination", §2.5): where the assignment "X = E" is
// available at a use of the source variable X, the use is replaced by a
// re-materialized computation of E into a fresh temp. The re-materialized
// instruction is annotated ReplacedVar=X — it is a "code replacement"
// record: its value aliases X, enabling the debugger to recover X after the
// original assignment is dead-code eliminated (Figure 4 of the paper).
//
// Re-materializations are merged back into single computations by the
// expression-level CSE of the PRE pass, reproducing exactly the paper's
// copy-propagation + common-subexpression pipeline.
func assignProp(ws *workspace, f *ir.Func) bool {
	sp := spaceOf(f)

	// Candidate assignments: X = E, X a promoted source var, E a pure
	// computation (BinOp/UnOp over Const/Var/Temp, or a Copy of a simple
	// operand) that does not read X. cands[k] is a snapshot of key k's
	// first defining instruction.
	table := ws.exprTable()
	cands := ws.snaps[:0]
	isCand := func(in *ir.Instr) bool {
		if !keyable(in) || in.Dst.Kind != ir.Var || selfRef(in) {
			return false
		}
		switch in.Kind {
		case ir.BinOp, ir.UnOp, ir.Copy:
			return true
		}
		return false
	}
	// keys[n] is the candidate key of the n-th instruction in block order,
	// or -1.
	keys := ws.keys[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			key := -1
			if isCand(in) {
				key = table.intern(in.AssignKey(), in)
				if key == len(cands) {
					// Snapshot the defining instruction NOW: later use
					// replacements may rewrite the original in place
					// (e.g. substituting an available copy into one of
					// its operands), and re-materialization must clone
					// the expression whose availability was analyzed,
					// not the rewritten one.
					cands = append(cands, *in)
				}
			}
			keys = append(keys, key)
		}
	}
	ws.snaps, ws.keys = cands, keys
	if table.size() == 0 {
		return false
	}
	km := ws.killMap(table.sample, sp, true)
	g := ws.graphOf(f)
	gen, kill, avail, _ := ws.genKill(f, table.size(), sp, km, keys)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill}).SolveIn(&ws.must)

	// Per variable, the list of candidate keys assigning it.
	keysForVar := emptyLists(&ws.byValue, sp.numVars)
	for ki := range cands {
		v := sp.indexOf(cands[ki].Dst)
		keysForVar[v] = append(keysForVar[v], ki)
	}

	changed := false
	n := 0
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key := keys[n]
			n++
			if in.IsMarker() {
				continue
			}
			// Find uses of candidate variables with an available
			// defining assignment.
			replaced := false
			for _, u := range ws.usesOf(in) {
				if u.Kind != ir.Var {
					continue
				}
				ui := sp.indexOf(u)
				for _, ki := range keysForVar[ui] {
					if !avail.Has(ki) {
						continue
					}
					def := &cands[ki]
					if in == def {
						break
					}
					// Propagate: re-materialize E into a temp just before
					// the use; annotate for recovery.
					rm := def.Clone()
					rm.Dst = f.NewTemp(def.Dst.Ty)
					rm.Stmt = in.Stmt
					rm.OrigIdx = f.NextOrig()
					rm.Ann = ir.Ann{ReplacedVar: f.Obj(def.Dst), InsertedBy: "assignprop"}
					changed, replaced = true, true
					// Copies of plain operands propagate the operand
					// directly (classic copy/constant propagation): no new
					// instruction, but the recovery link is preserved by
					// the dead-marker operand recorded at DCE time.
					if def.Kind == ir.Copy {
						in.ReplaceUses(u, def.A)
						break
					}
					b.InsertBefore(pos, rm)
					pos++
					in.ReplaceUses(u, rm.Dst)
					break
				}
			}
			if replaced { // its key may have changed
				key = -1
				if isCand(in) {
					key = table.lookup(in.AssignKey())
				}
			}
			stepAvail(avail, sp, km, in, key)
		}
	}
	return changed
}
