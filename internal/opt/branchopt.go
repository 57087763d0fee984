package opt

import (
	"repro/internal/ir"
)

// branchOpt performs the control-flow cleanups of Table 1's "branch
// optimizations": folding branches on constants, branch chaining through
// empty blocks, merging straight-line block pairs, and unreachable-code
// removal. Per §3 of the paper, when a basic block is deleted because it
// became empty, any debugger markers it holds are transferred to its
// successor; unreachable code (which would never have executed) is simply
// dropped.
func branchOpt(ws *workspace, f *ir.Func) bool {
	changed := false
	for {
		c := false
		c = foldConstBranches(f) || c
		c = chainBranches(ws, f) || c
		c = mergeBlocks(f) || c
		if !c {
			break
		}
		changed = true
	}
	return changed
}

// foldConstBranches turns "br const" into an unconditional jump.
func foldConstBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Kind != ir.Br || t.A.Kind != ir.ConstI {
			continue
		}
		taken, dead := b.Succs[0], b.Succs[1]
		if t.A.Int == 0 {
			taken, dead = dead, taken
		}
		_ = dead
		t.Kind = ir.Jmp
		t.A = ir.Operand{}
		b.Succs = []*ir.Block{taken}
		changed = true
	}
	if changed {
		f.RecomputePreds()
		f.RemoveUnreachable()
	}
	return changed
}

// isEmptyJmp reports whether b contains only a Jmp (markers excepted —
// a block holding markers is "empty" for branching purposes, and its
// markers migrate to the successor when the block is bypassed).
func isEmptyJmp(b *ir.Block) (jmpOnly bool, markers []*ir.Instr) {
	t := b.Term()
	if t == nil || t.Kind != ir.Jmp {
		return false, nil
	}
	for _, in := range b.Body() {
		if !in.IsMarker() {
			return false, nil
		}
		markers = append(markers, in)
	}
	return true, markers
}

// chainBranches retargets edges that point at empty jump-only blocks.
func chainBranches(ws *workspace, f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for si, s := range b.Succs {
			// Follow chains of empty blocks, marking each block visited
			// (by ID) to survive empty infinite-loop cycles. The marks
			// are all clear between chains.
			cur := s
			var collected []*ir.Instr
			chain := ws.chain[:0]
			for {
				if cur.ID >= len(ws.chainSeen) {
					ws.chainSeen = resize(ws.chainSeen, cur.ID+1)
				}
				if ws.chainSeen[cur.ID] {
					break
				}
				ws.chainSeen[cur.ID] = true
				chain = append(chain, cur.ID)
				empty, marks := isEmptyJmp(cur)
				// Only bypass the block if it has other predecessors or
				// no markers: bypassing a marker-holding block whose only
				// predecessor is b means the markers must move into the
				// new target.
				if !empty || cur.Succs[0] == cur {
					break
				}
				if len(marks) > 0 && len(cur.Preds) > 1 {
					// The markers apply to all paths through cur; we may
					// not duplicate them silently onto only our edge —
					// stop chaining here. (Block merging handles the
					// single-pred case below.)
					break
				}
				// Markers land at the head of the block the chain ends in,
				// which is exact only while every path into that block runs
				// through the chain. Advancing into a join with other
				// predecessors would put a path-specific marker (say, the
				// markdead of a conditionally deleted assignment) on paths
				// where the assignment never executed, and recovery would
				// fabricate its value there — stop the chain instead.
				if len(collected)+len(marks) > 0 && len(cur.Succs[0].Preds) != 1 {
					break
				}
				collected = append(collected, marks...)
				cur = cur.Succs[0]
			}
			for _, id := range chain {
				ws.chainSeen[id] = false
			}
			ws.chain = chain
			if cur != s {
				// Move collected markers into the head of the final target
				// (it post-dominates the deleted empty blocks on this
				// path; with a single predecessor the transfer is exact).
				for i := len(collected) - 1; i >= 0; i-- {
					cur.InsertBefore(0, collected[i])
				}
				b.Succs[si] = cur
				changed = true
			}
		}
	}
	if changed {
		f.RecomputePreds()
		f.RemoveUnreachable()
	}
	return changed
}

// mergeBlocks merges b into its single successor s when s has b as its
// single predecessor (straight-line pair).
func mergeBlocks(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for {
			t := b.Term()
			if t == nil || t.Kind != ir.Jmp || len(b.Succs) != 1 {
				break
			}
			s := b.Succs[0]
			if s == b || len(s.Preds) != 1 {
				break
			}
			// Splice s's instructions in place of b's terminator.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			b.Succs = s.Succs
			s.Instrs = nil
			s.Succs = nil
			changed = true
			f.RecomputePreds()
			f.RemoveUnreachable()
		}
	}
	return changed
}
