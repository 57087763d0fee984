package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// loopInvert performs loop inversion (the classic while→do-while rotation,
// one of Table 1's branch optimizations): the loop test at the header is
// duplicated into each latch, so iterating costs one conditional branch
// instead of a jump plus a branch. The header's original test remains as
// the zero-trip guard.
//
// Per §3 of the paper this is *code duplication*: marker
// pseudo-instructions and annotations inside the duplicated header are
// duplicated along with the code (Instr.Clone preserves them), and no
// data-value problems arise because no assignment is moved or eliminated.
func loopInvert(ws *workspace, f *ir.Func) bool {
	changed := false
	for rounds := 0; rounds < 16; rounds++ {
		g := ws.graphOf(f)
		loops, _ := dataflow.FindLoopsIn(&ws.loops, g, 0)
		inverted := false
		for _, l := range loops {
			if invertLoop(f, g, l) {
				changed = true
				inverted = true
				break // CFG changed: rediscover loops
			}
		}
		if !inverted {
			break
		}
	}
	return changed
}

// invertLoop rotates one loop if its header is a pure test block.
func invertLoop(f *ir.Func, g dataflow.Graph, l *dataflow.Loop) bool {
	header := f.Blocks[l.Header]
	term := header.Term()
	if term == nil || term.Kind != ir.Br || len(header.Succs) != 2 {
		return false
	}
	// Identify the in-loop successor and the exit successor.
	hi := l.Header
	var bodySucc, exitSucc *ir.Block
	s0in := l.In(blockIndex(f, header.Succs[0]))
	s1in := l.In(blockIndex(f, header.Succs[1]))
	switch {
	case s0in && !s1in:
		bodySucc, exitSucc = header.Succs[0], header.Succs[1]
	case s1in && !s0in:
		bodySucc, exitSucc = header.Succs[1], header.Succs[0]
	default:
		return false // both arms inside (rotated already) or irreducible
	}
	_ = exitSucc

	// The header must contain only pure, duplicable instructions (the
	// test computation) and markers. Loads are excluded: duplicating a
	// load past the loop body's stores would reorder memory accesses.
	for _, in := range header.Body() {
		switch in.Kind {
		case ir.BinOp, ir.UnOp, ir.Copy, ir.Addr, ir.MarkDead, ir.MarkAvail:
		default:
			return false
		}
	}
	// Keep duplication small.
	if len(header.Instrs) > 8 {
		return false
	}

	// Latches: in-loop predecessors of the header that end in a plain
	// jump (conditional latches would need edge splitting; skip those).
	var latches []*ir.Block
	for _, p := range header.Preds {
		pi := blockIndex(f, p)
		if pi < 0 || !l.In(pi) {
			continue
		}
		if t := p.Term(); t == nil || t.Kind != ir.Jmp {
			return false
		}
		latches = append(latches, p)
	}
	if len(latches) == 0 {
		return false
	}
	_ = hi

	// Duplicate the header's body + branch into each latch, replacing the
	// latch's jump.
	for _, latch := range latches {
		latch.Instrs = latch.Instrs[:len(latch.Instrs)-1] // drop the Jmp
		for _, in := range header.Instrs {
			c := in.Clone()
			c.OrigIdx = f.NextOrig()
			latch.Instrs = append(latch.Instrs, c)
		}
		latch.Succs = []*ir.Block{bodySucc, exitSucc}
	}
	f.RecomputePreds()
	return true
}
