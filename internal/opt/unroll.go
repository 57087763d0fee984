package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// maxUnrollInstrs bounds the size of loops considered for unrolling.
const maxUnrollInstrs = 30

// unroll unrolls innermost small loops by a factor of two, keeping the exit
// test in each copy (so no trip-count knowledge is required). Per §3 of the
// paper, code duplication does not create data-value problems, but marker
// pseudo-instructions and annotations inside the duplicated blocks must be
// duplicated along with the code — Instr.Clone preserves both.
func unroll(ws *workspace, f *ir.Func) bool {
	changed := false
	done := map[*ir.Block]bool{} // headers already transformed
	// Transform one loop at a time: every transformation invalidates block
	// indices (blocks are added and unreachable ones removed), so loop
	// discovery restarts after each change.
	for round := 0; round < 64; round++ {
		g := ws.graphOf(f)
		loops, _ := dataflow.FindLoopsIn(&ws.loops, g, 0)
		applied := false
		for _, l := range loops {
			if done[f.Blocks[l.Header]] {
				continue
			}
			// Innermost only: no other loop's header inside this loop.
			inner := true
			for _, o := range loops {
				if o != l && l.In(o.Header) {
					inner = false
					break
				}
			}
			if !inner {
				continue
			}
			size := 0
			l.Blocks.ForEach(func(bi int) { size += len(f.Blocks[bi].Instrs) })
			done[f.Blocks[l.Header]] = true
			if size > maxUnrollInstrs {
				continue
			}
			cloneLoopIteration(f, g, l)
			changed = true
			applied = true
			break
		}
		if !applied {
			break
		}
	}
	return changed
}

// cloneLoopIteration clones the whole loop subgraph once and splices the
// clone into the back edges (original latches jump to the cloned header,
// cloned latches jump back to the original header): unrolling by two.
// Cloned exit edges keep their original targets.
func cloneLoopIteration(f *ir.Func, g dataflow.Graph, l *dataflow.Loop) {
	header := f.Blocks[l.Header]

	// Deterministic ordering of loop blocks.
	var loopBlocks []*ir.Block
	for bi := 0; bi < g.N; bi++ {
		if l.In(bi) {
			loopBlocks = append(loopBlocks, f.Blocks[bi])
		}
	}

	// Clone blocks and instructions.
	cloneOf := map[*ir.Block]*ir.Block{}
	for _, b := range loopBlocks {
		nb := f.NewBlock()
		for _, in := range b.Instrs {
			c := in.Clone()
			c.OrigIdx = f.NextOrig()
			nb.Instrs = append(nb.Instrs, c)
		}
		cloneOf[b] = nb
	}
	// Wire clone successors: intra-loop edges stay inside the clone except
	// edges back to the header, which leave the clone (to the original
	// header — advancing the "other" copy of the iteration).
	for _, b := range loopBlocks {
		nb := cloneOf[b]
		for _, s := range b.Succs {
			switch {
			case s == header:
				nb.Succs = append(nb.Succs, header)
			case cloneOf[s] != nil:
				nb.Succs = append(nb.Succs, cloneOf[s])
			default:
				nb.Succs = append(nb.Succs, s) // exit edge
			}
		}
	}

	// Back edges from original latches go to the cloned header.
	clonedHeader := cloneOf[header]
	for _, latch := range l.Latches {
		f.Blocks[latch].ReplaceSucc(header, clonedHeader)
	}
	f.RecomputePreds()
	f.RemoveUnreachable()
}
