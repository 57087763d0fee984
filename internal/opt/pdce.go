package opt

import (
	"repro/internal/ir"
)

// pdce performs partial dead-code elimination by assignment sinking
// (Knoop/Rüthing/Steffen's transformation, restricted to the
// single-branch pattern): an assignment "V = E" whose value is dead along
// one successor path but live along another is removed from its block and a
// copy is inserted (annotated Sunk) on the live edge. The original
// assignment, now fully dead, is eliminated by the following DCE pass,
// which leaves the MarkDead marker — together they reproduce exactly the
// paper's Figure 3: E0 deleted because dead, E2 inserted by code sinking.
//
// Sinking is safe here because the inserted copy executes on a subset of
// the original paths, operands are unchanged between the original and the
// insertion point, and the moved computations are pure.
func pdce(ws *workspace, f *ir.Func) bool {
	changed := false
	for round := 0; round < 4; round++ {
		lv := ws.liveness(f)
		sp := lv.space
		roundChanged := false

		for _, b := range f.Blocks {
			term := b.Term()
			if term == nil || term.Kind != ir.Br || len(b.Succs) != 2 {
				continue
			}
			for pos := len(b.Instrs) - 2; pos >= 0; pos-- { // skip terminator
				in := b.Instrs[pos]
				if !sinkable(in) {
					continue
				}
				k := sp.indexOf(in.Dst)
				if k < 0 {
					continue
				}
				// Dst must be unused in the rest of this block.
				if ws.usedOrKilledBelow(b, pos+1, in.Dst) {
					continue
				}
				s0 := blockIndex(f, b.Succs[0])
				s1 := blockIndex(f, b.Succs[1])
				live0 := lv.LiveIn[s0].Has(k)
				live1 := lv.LiveIn[s1].Has(k)
				if live0 == live1 {
					continue // fully live (leave) or fully dead (DCE's job)
				}
				// Partially dead: V is wanted along exactly one edge.
				// Operands of E must not be redefined between pos and the
				// end of the block.
				if operandsKilledBelow(b, pos+1, in) {
					continue
				}
				liveSucc := b.Succs[0]
				if live1 {
					liveSucc = b.Succs[1]
				}
				// Do not sink into a block that merges other paths unless
				// we split the edge; insertOnEdge handles both cases, but
				// sinking into a loop header would re-execute E every
				// iteration — require the edge not to target a block that
				// dominates b (cheap loop-header guard).
				if liveSucc == b {
					continue
				}
				sunk := in.Clone()
				sunk.Ann.Sunk = true
				sunk.Ann.InsertedBy = "pdce"
				sunk.OrigIdx = f.NextOrig()

				if len(liveSucc.Preds) == 1 {
					// Safe to prepend directly.
					liveSucc.InsertBefore(0, sunk)
				} else {
					insertOnEdge(f, b, liveSucc, sunk)
					f.RecomputePreds()
				}
				// The original assignment is now dead on every path; let
				// DCE delete it so the marker bookkeeping happens in one
				// place. That includes clearing the MarkDead aliases that
				// name in.Dst: below the vacated position the register is
				// written only by the sunk copy, if at all.
				roundChanged = true
				changed = true
				break // liveness and block indices are stale; restart
			}
			if roundChanged {
				break
			}
		}
		if !roundChanged {
			break
		}
		dce(ws, f)
	}
	return changed
}

// sinkable reports whether in is a pure, re-computable assignment that can
// move past a branch. Self-referencing assignments (V = f(V)) are excluded:
// a sunk copy reads V and therefore keeps the original assignment live, so
// the motion would duplicate the update's effect instead of moving it.
func sinkable(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp, ir.UnOp, ir.Copy, ir.Addr:
		return in.HasDst() && !in.Ann.Hoisted && !selfRef(in)
	}
	return false
}

// usedOrKilledBelow reports whether operand o is read or written by any
// instruction in b at positions [from, len).
func (ws *workspace) usedOrKilledBelow(b *ir.Block, from int, o ir.Operand) bool {
	for i := from; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		for _, u := range ws.usesOf(in) {
			if u.Same(o) {
				return true
			}
		}
		if in.HasDst() && in.Dst.Same(o) {
			return true
		}
	}
	return false
}

// operandsKilledBelow reports whether any operand read by `in` is redefined
// in b at positions [from, len).
func operandsKilledBelow(b *ir.Block, from int, in *ir.Instr) bool {
	var buf [4]ir.Operand
	uses := in.Uses(buf[:0])
	for i := from; i < len(b.Instrs); i++ {
		x := b.Instrs[i]
		if !x.HasDst() {
			continue
		}
		for _, u := range uses {
			if x.Dst.Same(u) {
				return true
			}
		}
	}
	return false
}
