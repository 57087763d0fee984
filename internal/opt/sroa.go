package opt

import (
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/ir"
)

// SROA — scalar replacement of aggregates.
//
// The IR builder places every struct variable in memory (a frame object)
// and compiles field accesses as constant-offset loads and stores through
// the aggregate's address. For a struct that is never address-taken, that
// memory round trip is pure overhead AND an optimization barrier: the
// scalar passes (constprop, assignprop, PRE, LICM, DCE) do not look
// through loads.
//
// SROA runs first in the pipeline, on the fresh IR, and rewrites every
// analyzable aggregate access into an assignment of the field's *member
// variable* — the per-field objects the checker materialized alongside the
// base ("p.x", "p.y", ...; ordinary entries of Decl.Locals with dense IDs).
// After the split the aggregate's frame slot is gone and each field is an
// independent promoted scalar, so every later transformation — and,
// crucially, every piece of the paper's §3 debugging bookkeeping (dead/
// redundant markers, hoist annotations, alias recovery) — applies per
// field. A split struct can then be *partially* endangered: one field
// current, another dead, another hoisted, which is exactly the per-field
// residency story the debugger surfaces.
//
// An aggregate is split when every use of its address is a constant-offset
// load or store that stays inside the object (the builder only emits such
// accesses; address-taken structs are excluded by sem marking them
// Addressed). Anything else — an address temp escaping into a call, a
// store of the address itself, out-of-range offsets — keeps the aggregate
// in memory.

// sroaSplits counts aggregates split across the process lifetime (served
// as the sroa_splits stat).
var sroaSplits atomic.Int64

// SROASplitCount returns the number of aggregates split so far.
func SROASplitCount() int64 { return sroaSplits.Load() }

// sroa splits eligible aggregates in f into per-field scalar variables.
// It returns the number of aggregates split.
func sroa(f *ir.Func) int {
	// Candidate bases: non-addressed struct-typed frame objects with
	// materialized member objects.
	cand := map[*ast.Object]bool{}
	for _, o := range f.FrameObjects {
		if _, ok := o.Type.(*ast.StructType); ok && !o.Addressed && len(o.Members) > 0 {
			cand[o] = true
		}
	}
	if len(cand) == 0 {
		return 0
	}

	// Map each temp defined by Addr(candidate) to its base, and disqualify
	// bases whose address escapes any analyzable access pattern.
	addrOf := map[int32]*ast.Object{} // temp ID -> candidate base
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.Addr && cand[in.AddrObj] && in.Dst.Kind == ir.Temp {
				addrOf[in.Dst.ID] = in.AddrObj
			}
		}
	}
	baseOfTemp := func(o ir.Operand) *ast.Object {
		if o.Kind != ir.Temp {
			return nil
		}
		return addrOf[o.ID]
	}
	inRange := func(base *ast.Object, off int64) bool {
		return off >= 0 && off%4 == 0 && off < int64(base.Type.Size())
	}

	var uses []ir.Operand
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Kind {
			case ir.Addr:
				// The defining Addr itself; redefinition of an address temp
				// by a second Addr of a different candidate is impossible
				// (builder temps are single-assignment), but be safe.
				continue
			case ir.Load:
				if base := baseOfTemp(in.A); base != nil && !inRange(base, in.Off) {
					delete(cand, base)
				}
				continue
			case ir.Store:
				if base := baseOfTemp(in.A); base != nil && !inRange(base, in.Off) {
					delete(cand, base)
				}
				// The stored *value* must not be an aggregate's address.
				if base := baseOfTemp(in.B); base != nil {
					delete(cand, base)
				}
				continue
			}
			// Any other appearance of an address temp (call argument,
			// pointer arithmetic, copy, print, return, branch) or a
			// redefinition of it disqualifies the base.
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if base := baseOfTemp(u); base != nil {
					delete(cand, base)
				}
			}
			if in.HasDst() {
				if base := baseOfTemp(in.Dst); base != nil {
					delete(cand, base)
				}
			}
		}
	}
	if len(cand) == 0 {
		return 0
	}

	// Rewrite: loads become copies from the member variable, stores become
	// copies to it, and the Addr instructions disappear. Stmt/OrigIdx/Ann
	// are preserved so the later passes' marker bookkeeping attributes the
	// rewritten assignments to the right source statements.
	for _, b := range f.Blocks {
		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := b.Instrs[idx]
			switch in.Kind {
			case ir.Addr:
				if cand[in.AddrObj] {
					b.RemoveAt(idx)
				}
			case ir.Load:
				if base := baseOfTemp(in.A); base != nil && cand[base] {
					m := base.Members[in.Off/4]
					in.Kind = ir.Copy
					in.A = ir.VarOf(m)
					in.Off = 0
				}
			case ir.Store:
				if base := baseOfTemp(in.A); base != nil && cand[base] {
					m := base.Members[in.Off/4]
					v := in.B
					in.Kind = ir.Copy
					in.Dst = ir.VarOf(m)
					in.A = v
					in.B = ir.Operand{}
					in.Off = 0
				}
			}
		}
	}

	// Drop the split aggregates from the frame.
	keep := f.FrameObjects[:0]
	for _, o := range f.FrameObjects {
		if !cand[o] {
			keep = append(keep, o)
		}
	}
	f.FrameObjects = keep

	sroaSplits.Add(int64(len(cand)))
	return len(cand)
}
