package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// licm hoists loop-invariant temp computations into a loop preheader. The
// hoisted instructions are annotated Hoisted (they are code inserted by a
// hoisting transformation), but because their destinations are compiler
// temporaries they do not endanger source variables — matching the paper's
// measurement that cmcc "hoisted mainly address computations".
//
// Hoisting is non-speculative: an instruction is only moved if its block
// dominates every loop exit, so it would have executed on every loop
// traversal anyway.
func licm(ws *workspace, f *ir.Func) bool {
	g := ws.graphOf(f)
	loops, depth := dataflow.FindLoopsIn(&ws.loops, g, 0)
	for i, b := range f.Blocks {
		b.LoopDepth = depth[i]
	}
	if len(loops) == 0 {
		return false
	}
	dom := dataflow.DominatorsIn(&ws.loops, g, 0)
	lv := ws.liveness(f)
	sp := spaceOf(f)

	changed := false
	// Process inner loops first (greater depth first).
	order := make([]*dataflow.Loop, len(loops))
	copy(order, loops)
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].Depth > order[i].Depth {
				order[i], order[j] = order[j], order[i]
			}
		}
	}

	for _, l := range order {
		if hoistLoop(f, g, dom, lv, sp, l) {
			changed = true
			// CFG changed (preheader inserted); recompute for the rest.
			g = ws.graphOf(f)
			dom = dataflow.DominatorsIn(&ws.loops, g, 0)
			lv = ws.liveness(f)
		}
	}
	return changed
}

func hoistLoop(f *ir.Func, g dataflow.Graph, dom *dataflow.DomTree,
	lv *liveness, sp valueSpace, l *dataflow.Loop) bool {

	header := f.Blocks[l.Header]

	// Deterministic block order within the loop.
	var loopBlocks []int
	for bi := 0; bi < g.N; bi++ {
		if l.In(bi) {
			loopBlocks = append(loopBlocks, bi)
		}
	}

	// Values defined anywhere in the loop.
	definedInLoop := map[int]int{} // value index -> def count
	for _, bi := range loopBlocks {
		for _, in := range f.Blocks[bi].Instrs {
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					definedInLoop[k]++
				}
			}
		}
	}

	// Loop exits: blocks inside with a successor outside.
	var exits []int
	for _, bi := range loopBlocks {
		for _, s := range g.Succs[bi] {
			if !l.In(s) {
				exits = append(exits, bi)
				break
			}
		}
	}

	invariant := func(o ir.Operand) bool {
		k := sp.indexOf(o)
		return k < 0 || definedInLoop[k] == 0
	}

	// Successor blocks outside the loop (exit targets), for the
	// dead-outside test below.
	var exitTargets []int
	for _, e := range exits {
		for _, s := range g.Succs[e] {
			if !l.In(s) {
				exitTargets = append(exitTargets, s)
			}
		}
	}

	var hoisted []*ir.Instr
	var buf []ir.Operand
	for _, bi := range loopBlocks {
		b := f.Blocks[bi]
		// Non-speculative hoisting requires the block to dominate all
		// exits. Blocks that don't (a while-loop body) may still hoist
		// non-trapping temp computations whose result is dead outside the
		// loop: executing them on a zero-trip traversal is unobservable.
		domAll := true
		for _, e := range exits {
			if !dom.Dominates(bi, e) {
				domAll = false
				break
			}
		}
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			switch in.Kind {
			case ir.BinOp, ir.UnOp, ir.Copy, ir.Addr:
			default:
				continue
			}
			if in.Dst.Kind != ir.Temp {
				continue // only temp computations; source assignments are
				// hoisted by PRE where the bookkeeping is generated
			}
			if !domAll {
				// Speculative path: op must be non-trapping and the
				// destination dead outside the loop.
				if in.Op == ir.Div || in.Op == ir.Rem {
					continue
				}
				deadOutside := true
				for _, s := range exitTargets {
					if lv.LiveIn[s].Has(sp.indexOf(in.Dst)) {
						deadOutside = false
						break
					}
				}
				if !deadOutside {
					continue
				}
			}
			k := sp.indexOf(in.Dst)
			if definedInLoop[k] != 1 {
				continue // multiple defs: not a simple invariant
			}
			// Destination must not be live into the loop header from
			// outside (its pre-loop value must be dead).
			if lv.LiveIn[l.Header].Has(k) {
				continue
			}
			buf = in.Uses(buf[:0])
			allInv := true
			for _, u := range buf {
				if !invariant(u) {
					allInv = false
					break
				}
			}
			if !allInv {
				continue
			}
			// Hoist.
			b.RemoveAt(pos)
			pos--
			in.Ann.Hoisted = true
			in.Ann.InsertedBy = "licm"
			hoisted = append(hoisted, in)
			definedInLoop[k] = 0 // now invariant for later candidates
		}
	}
	if len(hoisted) == 0 {
		return false
	}

	// Build or reuse a preheader: a block whose single successor is the
	// header, dominating it, outside the loop.
	pre := f.NewBlock()
	pre.Instrs = append(pre.Instrs, hoisted...)
	j := &ir.Instr{Kind: ir.Jmp, Stmt: -1, OrigIdx: f.NextOrig()}
	pre.Instrs = append(pre.Instrs, j)
	pre.Succs = []*ir.Block{header}
	for pi := range g.N {
		if l.In(pi) {
			continue
		}
		isPred := false
		for _, s := range g.Succs[pi] {
			if s == l.Header {
				isPred = true
			}
		}
		if isPred {
			f.Blocks[pi].ReplaceSucc(header, pre)
		}
	}
	f.RecomputePreds()
	return true
}
