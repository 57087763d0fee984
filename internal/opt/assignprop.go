package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// AssignProp performs assignment propagation (cmcc performs it "to improve
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
func AssignProp(f *ir.Func) bool {
	sp := spaceOf(f)

	// Candidate assignments: X = E, X a promoted source var, E a pure
	// computation (BinOp/UnOp over Const/Var/Temp, or a Copy of a simple
	// operand) that does not read X.
	table := newExprTable()
	type candInfo struct{ in *ir.Instr }
	var cands []candInfo
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
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if isCand(in) {
				if _, ok := table.lookup(in.AssignKey()); !ok {
					table.intern(in.AssignKey(), in)
					// Snapshot the defining instruction NOW: later use
					// replacements may rewrite the original in place
					// (e.g. substituting an available copy into one of
					// its operands), and re-materialization must clone
					// the expression whose availability was analyzed,
					// not the rewritten one.
					cands = append(cands, candInfo{in: in.Clone()})
				}
			}
		}
	}
	if table.size() == 0 {
		return false
	}
	km := buildKillMap(table, sp, true)
	g, _ := graphOf(f)
	keyOf := func(in *ir.Instr) (int, bool) {
		if isCand(in) {
			return table.lookup(in.AssignKey())
		}
		return 0, false
	}
	gen, kill := genKillFor(f, g.N, table.size(), sp, km, keyOf)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill}).Solve()

	// Per variable, the list of candidate keys assigning it.
	keysForVar := map[int][]int{}
	for ki, c := range cands {
		keysForVar[sp.indexOf(c.in.Dst)] = append(keysForVar[sp.indexOf(c.in.Dst)], ki)
	}

	changed := false
	var buf []ir.Operand
	for bi, b := range f.Blocks {
		avail := must.In[bi].Copy()
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			if in.IsMarker() {
				continue
			}
			// Find uses of candidate variables with an available
			// defining assignment.
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u.Kind != ir.Var {
					continue
				}
				ui := sp.indexOf(u)
				for _, ki := range keysForVar[ui] {
					if !avail.Has(ki) {
						continue
					}
					def := cands[ki].in
					if in == def {
						break
					}
					// Propagate: re-materialize E into a temp just before
					// the use; annotate for recovery.
					rm := def.Clone()
					rm.Dst = f.NewTemp(def.Dst.Ty)
					rm.Stmt = in.Stmt
					rm.OrigIdx = f.NextOrig()
					rm.Ann = ir.Ann{ReplacedVar: def.Dst.Obj, InsertedBy: "assignprop"}
					// Copies of plain operands propagate the operand
					// directly (classic copy/constant propagation): no new
					// instruction, but the recovery link is preserved by
					// the dead-marker operand recorded at DCE time.
					if def.Kind == ir.Copy {
						in.ReplaceUses(u, def.A)
						changed = true
						break
					}
					b.InsertBefore(pos, rm)
					pos++
					in.ReplaceUses(u, rm.Dst)
					changed = true
					break
				}
			}
			stepAvail(avail, sp, km, in, table, keyOf)
		}
	}
	return changed
}
