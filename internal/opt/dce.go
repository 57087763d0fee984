package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// DCE performs dead-assignment elimination: an instruction defining a Var
// or Temp whose value is dead immediately after it, with no side effects,
// is removed. Per §3 of the paper, an eliminated assignment to a *source
// variable* is replaced by a MarkDead marker (unless the instruction was
// itself inserted by hoisting or sinking), which the debugger's dead-reach
// analysis consumes. The pass iterates to a fixed point and reports whether
// anything changed.
func DCE(f *ir.Func) bool {
	changedAny := false
	var buf []ir.Operand
	for {
		changed := false
		lv := computeLiveness(f)
		live := dataflow.NewBitSet(lv.space.size())
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
				buf = in.Uses(buf[:0])
				for _, o := range buf {
					if u := lv.space.indexOf(o); u >= 0 {
						live.Set(u)
					}
				}
				if !dead {
					continue
				}
				// Dead assignment. Synthetic entry code (Stmt < 0) is
				// markerized too: a parameter field's initialization is a
				// source-level binding, and deleting it without a marker
				// would make the debugger call the field uninitialized.
				if in.Dst.Kind == ir.Var && !in.Ann.Hoisted && !in.Ann.Sunk {
					m := &ir.Instr{
						Kind:    ir.MarkDead,
						MarkObj: in.Dst.Obj,
						Stmt:    in.Stmt,
						OrigIdx: in.OrigIdx,
					}
					// Record the eliminated right-hand side when it is a
					// simple operand: the debugger can then *recover* the
					// expected value (constant residence, or alias while
					// the source operand is unchanged).
					if in.Kind == ir.Copy {
						m.A = in.A
					}
					b.Instrs[i] = m
				} else {
					b.RemoveAt(i)
				}
				changed = true
				changedAny = true
			}
		}
		if !changed {
			return changedAny
		}
	}
}

// removableKind reports whether in has no side effects besides its Dst.
func removableKind(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp, ir.UnOp, ir.Copy, ir.Load, ir.Addr, ir.GetParam:
		return true
	}
	return false
}

// FaintDCE eliminates *faint* values: self-sustaining def cycles (most
// importantly "i = i + 1" updates of induction variables whose other uses
// were removed by linear function test replacement) that ordinary
// liveness-based DCE cannot remove because the value keeps itself alive
// around the loop. An instruction is needed if it has side effects or if
// its destination feeds a needed instruction; everything else is removed,
// with the usual MarkDead bookkeeping for source-variable assignments.
func FaintDCE(f *ir.Func) bool {
	sp := spaceOf(f)

	// strong[k]: value k is read by some needed instruction.
	strong := make([]bool, sp.size())
	// needed[bi][i] marks f.Blocks[bi].Instrs[i]; nothing moves while marking.
	needed := make([][]bool, len(f.Blocks))
	for bi, b := range f.Blocks {
		needed[bi] = make([]bool, len(b.Instrs))
	}
	var buf []ir.Operand

	sideEffecting := func(in *ir.Instr) bool {
		switch in.Kind {
		case ir.Store, ir.Call, ir.Print, ir.Ret, ir.Jmp, ir.Br, ir.MarkDead, ir.MarkAvail:
			return true
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		for bi, b := range f.Blocks {
			for i, in := range b.Instrs {
				if needed[bi][i] {
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
					needed[bi][i] = true
					changed = true
					buf = in.Uses(buf[:0])
					for _, u := range buf {
						if k := sp.indexOf(u); k >= 0 && !strong[k] {
							strong[k] = true
						}
					}
				}
			}
		}
	}

	removed := false
	for bi, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if needed[bi][i] || !removableKind(in) || !in.HasDst() {
				continue
			}
			if in.Dst.Kind == ir.Var && !in.Ann.Hoisted && !in.Ann.Sunk {
				m := &ir.Instr{
					Kind:    ir.MarkDead,
					MarkObj: in.Dst.Obj,
					Stmt:    in.Stmt,
					OrigIdx: in.OrigIdx,
				}
				if in.Kind == ir.Copy {
					m.A = in.A
				}
				b.Instrs[i] = m
			} else {
				b.RemoveAt(i)
			}
			removed = true
		}
	}
	return removed
}

// ValidateMarkers drops the alias operand from MarkDead markers whose
// source value is not definitely computed by the time the marker is
// reached. A marker records "V's eliminated assignment copied from A, so
// A's location still holds the expected value" — an assumption later
// passes can break in two ways:
//
//   - a later DCE/FaintDCE round deletes the computation of A itself
//     (its value was only needed by the assignment that is now the
//     marker), leaving the alias pointing at a register that is never
//     written;
//   - sinking (PDCE) moves A's computation below the marker, so the
//     register is unwritten exactly in the window between the marker
//     and the sunk code (the debugger's clobber analysis already
//     invalidates the alias *after* the re-definition).
//
// Recovering through such an alias would fabricate a value, so the
// recovery is degraded to none instead: the alias must be *definitely
// written* (on every path) at the marker. Runs once after the pipeline.
func ValidateMarkers(f *ir.Func) {
	any := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.MarkDead && in.A.Valid() {
				any = true
			}
		}
	}
	if !any {
		return
	}

	sp := spaceOf(f)
	g := graphOf(f)
	n := len(f.Blocks)
	gen := make([]*dataflow.BitSet, n)
	for i, b := range f.Blocks {
		gen[i] = dataflow.NewBitSet(sp.size())
		for _, in := range b.Instrs {
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					gen[i].Set(k)
				}
			}
		}
	}

	// Forward must-written: in[b] = ∩ out[preds]; out[b] = in[b] ∪ gen[b].
	// Writes are never killed — only whether a write has happened matters,
	// not which one (a re-definition is handled by the debugger's clobber
	// analysis).
	entry := max(blockIndex(f, f.Entry), 0)
	ins := make([]*dataflow.BitSet, n)
	outs := make([]*dataflow.BitSet, n)
	for i := 0; i < n; i++ {
		ins[i] = dataflow.NewBitSet(sp.size())
		if i != entry {
			ins[i].SetAll()
		}
		outs[i] = ins[i].Copy()
		outs[i].Union(gen[i])
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if i != entry {
				first := true
				for _, p := range g.Preds[i] {
					if first {
						ins[i].CopyFrom(outs[p])
						first = false
					} else {
						ins[i].Intersect(outs[p])
					}
				}
			}
			old := outs[i]
			nw := ins[i].Copy()
			nw.Union(gen[i])
			if !nw.Equal(old) {
				outs[i] = nw
				changed = true
			}
		}
	}

	for i, b := range f.Blocks {
		written := ins[i].Copy()
		for _, in := range b.Instrs {
			if in.Kind == ir.MarkDead && in.A.Valid() {
				if k := sp.indexOf(in.A); k >= 0 && !written.Has(k) {
					in.A = ir.Operand{}
				}
			}
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					written.Set(k)
				}
			}
		}
	}
}
