package opt

import (
	"repro/internal/ir"
)

// dce performs dead-assignment elimination: an instruction defining a Var
// or Temp whose value is dead immediately after it, with no side effects,
// is removed. Per §3 of the paper, an eliminated assignment to a *source
// variable* is replaced by a MarkDead marker (unless the instruction was
// itself inserted by hoisting or sinking), which the debugger's dead-reach
// analysis consumes. The pass iterates to a fixed point and reports whether
// anything changed.
func dce(ws *workspace, f *ir.Func) bool {
	el := eliminator{ws: ws, f: f, sp: spaceOf(f)}
	for {
		changed := false
		lv := ws.liveness(f)
		live := lv.spare
		for bi, b := range f.Blocks {
			// live holds the values live after b.Instrs[i]. Each
			// instruction's original transfer is applied before it is
			// rewritten or removed.
			live.CopyFrom(lv.LiveOut[bi])
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				k := -1
				if in.HasDst() {
					k = lv.space.indexOf(in.Dst)
				}
				dead := k >= 0 && removableKind(in) && !live.Has(k)
				if k >= 0 {
					live.Clear(k)
				}
				for _, o := range ws.usesOf(in) {
					if u := lv.space.indexOf(o); u >= 0 {
						live.Set(u)
					}
				}
				if dead {
					el.eliminate(b, i, k)
					changed = true
				}
			}
		}
		if !changed {
			return el.finish()
		}
	}
}

// eliminator deletes dead writes with the §3 marker bookkeeping, for DCE
// and FaintDCE. A deleted assignment to a source variable becomes a
// MarkDead marker (unless the instruction was itself inserted by hoisting
// or sinking). Synthetic entry code (Stmt < 0) is markerized too: a
// parameter field's initialization is a source-level binding, and deleting
// it without a marker would make the debugger call the field uninitialized.
//
// A deletion can also invalidate markers elsewhere in the function, and
// finish repairs those in one scan per pass:
//
//   - a MarkDead alias names a register whose defining write is gone (the
//     write was needed only by the assignment the marker replaced, or PDCE
//     sank it below the marker and left the original here to die), so the
//     alias would read a stale or never-written value: every alias naming
//     a register with a deleted write is cleared;
//   - a deleted hoisted assignment to V leaves V's MarkAvail markers
//     claiming a value that nothing computes any more: they are demoted to
//     MarkDead markers without an alias.
//
// Both repairs only lose precision: the variable degrades to a warning,
// never to a fabricated value.
type eliminator struct {
	ws      *workspace
	f       *ir.Func
	sp      valueSpace
	deleted []bool // values with a deleted write; nil until one is
	hoisted []bool // variables with a deleted hoisted assignment
}

// eliminate deletes b.Instrs[i], whose destination has value index k.
func (e *eliminator) eliminate(b *ir.Block, i, k int) {
	in := b.Instrs[i]
	if e.deleted == nil {
		n := e.sp.size()
		marks := resize(e.ws.elimMarks, 2*n)
		clear(marks)
		e.ws.elimMarks = marks
		e.deleted, e.hoisted = marks[:n:n], marks[n:]
	}
	e.deleted[k] = true
	if in.Dst.Kind == ir.Var && in.Ann.Hoisted {
		e.hoisted[k] = true
	}
	if in.Dst.Kind != ir.Var || in.Ann.Hoisted || in.Ann.Sunk {
		b.RemoveAt(i)
		return
	}
	m := &ir.Instr{
		Kind:    ir.MarkDead,
		MarkObj: e.f.Obj(in.Dst),
		Stmt:    in.Stmt,
		OrigIdx: in.OrigIdx,
	}
	// Record the eliminated right-hand side when it is a simple operand:
	// the debugger can then *recover* the expected value (constant
	// residence, or alias while the source operand is unchanged).
	if in.Kind == ir.Copy {
		m.A = in.A
	}
	b.Instrs[i] = m
}

// finish repairs the markers the pass's deletions invalidated and reports
// whether anything was deleted.
func (e *eliminator) finish() bool {
	if e.deleted == nil {
		return false
	}
	for _, b := range e.f.Blocks {
		for _, in := range b.Instrs {
			switch in.Kind {
			case ir.MarkDead:
				if k := e.sp.indexOf(in.A); k >= 0 && e.deleted[k] {
					in.A = ir.Operand{}
				}
			case ir.MarkAvail:
				if e.hoisted[in.MarkObj.ID] {
					in.Kind = ir.MarkDead
				}
			}
		}
	}
	return true
}

// removableKind reports whether in has no side effects besides its Dst.
func removableKind(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp, ir.UnOp, ir.Copy, ir.Load, ir.Addr, ir.GetParam:
		return true
	}
	return false
}

// faintDCE eliminates *faint* values: self-sustaining def cycles (most
// importantly "i = i + 1" updates of induction variables whose other uses
// were removed by linear function test replacement) that ordinary
// liveness-based DCE cannot remove because the value keeps itself alive
// around the loop. An instruction is needed if it has side effects or if
// its destination feeds a needed instruction; everything else is removed,
// with the usual MarkDead bookkeeping for source-variable assignments.
func faintDCE(ws *workspace, f *ir.Func) bool {
	sp := spaceOf(f)

	// strong[k]: value k is read by some needed instruction. needed[n]
	// marks the n-th instruction in block order; nothing moves while
	// marking.
	marks := resize(ws.marks, sp.size()+numInstrs(f))
	clear(marks)
	ws.marks = marks
	strong, needed := marks[:sp.size()], marks[sp.size():]

	sideEffecting := func(in *ir.Instr) bool {
		switch in.Kind {
		case ir.Store, ir.Call, ir.Print, ir.Ret, ir.Jmp, ir.Br, ir.MarkDead, ir.MarkAvail:
			return true
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		n := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				i := n
				n++
				if needed[i] {
					continue
				}
				need := sideEffecting(in)
				if !need && in.HasDst() {
					if k := sp.indexOf(in.Dst); k >= 0 && strong[k] {
						need = true
					} else if k < 0 {
						need = true // unusual destination; keep
					}
				}
				if need {
					needed[i] = true
					changed = true
					for _, u := range ws.usesOf(in) {
						if k := sp.indexOf(u); k >= 0 && !strong[k] {
							strong[k] = true
						}
					}
				}
			}
		}
	}

	el := eliminator{ws: ws, f: f, sp: sp}
	base := 0 // needed's index of b.Instrs[0]
	for _, b := range f.Blocks {
		nb := len(b.Instrs)
		for i := nb - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if needed[base+i] || !removableKind(in) || !in.HasDst() {
				continue
			}
			el.eliminate(b, i, sp.indexOf(in.Dst))
		}
		base += nb
	}
	return el.finish()
}
