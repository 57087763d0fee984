// Package debuginfo builds the symbol-table side of the debugger: the map
// from source statements (the breakpoint unit) to locations in the final
// machine code, and scope queries for variables. It implements the paper's
// *syntactic* breakpoint model, which §5 argues is sufficient because
// source-level assignments are almost never hoisted.
package debuginfo

import (
	"unsafe"

	"repro/internal/ast"
	"repro/internal/mach"
)

// Loc is a code location: instruction Idx within Block (before execution).
type Loc struct {
	Block *mach.Block
	Idx   int
}

// Table holds per-function debug information. It is built from a machine
// body and its declaration's statement count and scopes, and names
// variables by Object.ID only: every Func over one body can share it.
type Table struct {
	// stmtLoc[s] is the chosen breakpoint location for statement s
	// (nil Block = no location).
	stmtLoc []Loc
	// stmtInst[s] is every *instance* location of statement s: one per
	// block that contains the statement's own code (original instructions
	// or the marker left by its deletion). Loop unrolling clones
	// statement code into new blocks, and a source breakpoint must fire
	// at every copy — arming only the canonical stmtLoc would let the
	// unrolled copy run past the breakpoint silently.
	stmtInst [][]Loc
	// NumStmts mirrors the frontend's statement count.
	NumStmts int
	// varsAt[s] caches the IDs of the locals in scope at statement s; the
	// slices are shared across queries and must not be modified by
	// callers.
	varsAt [][]int32
}

// Build computes the statement table for f.
//
// The breakpoint location of statement s is the instruction of s that
// appears in the final code and is original (not inserted by an
// optimization), with the smallest emission index — or, if every
// instruction of s was deleted, the marker left in its place — moved back
// over the markers of s directly before it. Statements
// with no code at all (e.g. plain declarations) fall back at query time to
// the next statement that has a location.
func Build(f *mach.Func) *Table {
	n := f.Decl.NumStmts
	t := &Table{NumStmts: n}
	t.stmtLoc = make([]Loc, n)
	// st[s] is the rank and OrigIdx of s's chosen location so far, and
	// the block (position+1; 0 none) and insts entry of s's candidate
	// instance in the block being scanned. Ranks: 0 none, 1
	// inserted-only, 2 marker, 3 original.
	type stmtState struct {
		rank, orig   int32
		block, inst  int32
		cRank, cOrig int32
	}
	st := make([]stmtState, n)
	type inst struct {
		s   int32
		loc Loc
	}
	insts := make([]inst, 0, n+len(f.Blocks)) // every block's instances, in block order
	for bi, b := range f.Blocks {
		for idx, in := range b.Instrs {
			s := int(in.Stmt)
			if s < 0 || s >= n {
				continue
			}
			r := int32(1)
			if in.IsMarker() {
				r = 2
			} else if !in.Hoisted && !in.Sunk && in.InsertedBy() == "" {
				r = 3
			}
			x := &st[s]
			orig := in.OrigIdx
			if r > x.rank || (r == x.rank && orig < x.orig) {
				x.rank = r
				x.orig = orig
				t.stmtLoc[s] = Loc{Block: b, Idx: idx}
			}
			// Per-block instance: only the statement's own code counts
			// (rank >= 2). Hoisted, sunk, and pass-inserted copies are not
			// instances — stopping at them would be a phantom stop at a
			// point the source program never reaches as that statement.
			if r < 2 {
				continue
			}
			if x.block != int32(bi+1) {
				x.block, x.inst = int32(bi+1), int32(len(insts))
				insts = append(insts, inst{int32(s), Loc{Block: b, Idx: idx}})
			} else if r > x.cRank || (r == x.cRank && orig < x.cOrig) {
				insts[x.inst].loc.Idx = idx
			} else {
				continue
			}
			x.cRank, x.cOrig = r, orig
		}
	}
	// A statement's own markers directly before a chosen location record
	// parts of the statement that were deleted: SROA splits a struct copy
	// into one copy per field, all of one statement, and the deleted
	// fields' copies leave markers before the surviving one. Stopping
	// after those markers would show their effect before the statement
	// ran; the unoptimized program stops before the whole statement.
	for s := range t.stmtLoc {
		t.stmtLoc[s] = backOverMarkers(t.stmtLoc[s], s)
	}
	for i := range insts {
		insts[i].loc = backOverMarkers(insts[i].loc, int(insts[i].s))
	}
	// Group the instances by statement into one backing array, block
	// order preserved within each statement.
	off := make([]int32, n+1)
	for _, x := range insts {
		off[x.s+1]++
	}
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	// Fill each statement's range from its end, walking the instances
	// backwards; off[s+1] ends at s's start, so shift it down one place.
	all := make([]Loc, len(insts))
	for i := len(insts) - 1; i >= 0; i-- {
		x := &insts[i]
		off[x.s+1]--
		all[off[x.s+1]] = x.loc
	}
	copy(off[:n], off[1:])
	off[n] = int32(len(insts))
	t.stmtInst = make([][]Loc, n)
	// Continuation suppression: a multi-block condition (short-circuit
	// && / ||) spreads ONE statement's code across consecutive blocks.
	// Arming every block would stop twice for a single source evaluation,
	// so a non-canonical instance is kept only when it *enters* the
	// statement — some earlier tagged instruction in its block belongs to
	// a different statement, or the block is led by this statement but
	// reached from a predecessor whose trailing code is a different
	// statement (or has no predecessors). A block led by s and reached
	// only from blocks ending in s merely continues the same evaluation.
	// The canonical location is exempt and always armed: a loop-header
	// test's back edge is tagged with the condition's own statement and
	// must not suppress the loop's stop point.
	for s := 0; s < n; s++ {
		ls := all[off[s]:off[s+1]:off[s+1]]
		if len(ls) > 1 {
			kept := ls[:0]
			for _, l := range ls {
				if l == t.stmtLoc[s] || entersStmt(l, s) {
					kept = append(kept, l)
				}
			}
			ls = kept
		}
		switch {
		case len(ls) > 0:
			t.stmtInst[s] = ls
		case t.stmtLoc[s].Block != nil:
			// A statement whose only code is inserted copies still
			// resolves (the canonical location points at one); its
			// instance list is that single location, preserving the
			// pre-instance behavior.
			t.stmtInst[s] = t.stmtLoc[s : s+1 : s+1]
		}
	}
	t.varsAt = varsInScopeTable(f.Decl.Locals, n)
	return t
}

// varsInScopeTable returns, for each of n statements, the IDs of the
// locals in scope there in declaration order. The per-statement slices
// share one backing array.
func varsInScopeTable(locals []*ast.Object, n int) [][]int32 {
	lo := func(v *ast.Object) int { return min(max(v.ScopeStart, 0), n) }
	hi := func(v *ast.Object) int { return min(max(v.ScopeEnd, 0), n) }
	off := make([]int32, n+1)
	for _, v := range locals {
		if l, h := lo(v), hi(v); l < h {
			off[l+1]++
			if h < n {
				off[h+1]--
			}
		}
	}
	// off[s+1] now holds the change in scope size at s; one pass sums
	// the changes into sizes and the sizes into offsets.
	size := int32(0)
	for s := 0; s < n; s++ {
		size += off[s+1]
		off[s+1] = off[s] + size
	}
	// Fill backwards, as Build does, so each statement's locals keep
	// declaration order.
	all := make([]int32, off[n])
	for i := len(locals) - 1; i >= 0; i-- {
		v := locals[i]
		for s := lo(v); s < hi(v); s++ {
			off[s+1]--
			all[off[s+1]] = int32(v.ID)
		}
	}
	copy(off[:n], off[1:])
	off[n] = int32(len(all))
	out := make([][]int32, n)
	for s := range out {
		if off[s] < off[s+1] {
			out[s] = all[off[s]:off[s+1]:off[s+1]]
		}
	}
	return out
}

// backOverMarkers moves l back over the markers of statement s that
// directly precede it in its block.
func backOverMarkers(l Loc, s int) Loc {
	for l.Block != nil && l.Idx > 0 {
		if p := l.Block.Instrs[l.Idx-1]; !p.IsMarker() || int(p.Stmt) != s {
			break
		}
		l.Idx--
	}
	return l
}

// entersStmt reports whether the instance of statement s at l begins a new
// source-level evaluation of s, as opposed to continuing one started in a
// predecessor block (see the suppression comment in Build).
func entersStmt(l Loc, s int) bool {
	b := l.Block
	for i := l.Idx - 1; i >= 0 && i < len(b.Instrs); i-- {
		if st := int(b.Instrs[i].Stmt); st >= 0 && st != s {
			return true
		}
	}
	if len(b.Preds) == 0 {
		return true
	}
	for _, p := range b.Preds {
		if trailingStmt(p) != s {
			return true
		}
	}
	return false
}

// trailingStmt returns the statement tag of b's last tagged instruction,
// or -1 when the block carries no source tags.
func trailingStmt(b *mach.Block) int {
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		if st := b.Instrs[i].Stmt; st >= 0 {
			return int(st)
		}
	}
	return -1
}

// LocOf returns the breakpoint location for statement s, falling back to
// the next statement with code. ok is false when no location exists at or
// after s.
func (t *Table) LocOf(s int) (Loc, bool) {
	for x := s; x < t.NumStmts; x++ {
		if t.stmtLoc[x].Block != nil {
			return t.stmtLoc[x], true
		}
	}
	return Loc{}, false
}

// LocsOf returns every instance location for statement s — one per block
// holding the statement's own code (clones from unrolling included) — with the same forward fallback as LocOf. The canonical
// LocOf location is always among them. ok is false when no location
// exists at or after s. The returned slice is shared: callers must not
// modify it.
func (t *Table) LocsOf(s int) ([]Loc, bool) {
	for x := s; x < t.NumStmts; x++ {
		if len(t.stmtInst[x]) > 0 {
			return t.stmtInst[x], true
		}
	}
	return nil, false
}

// InstancesOf returns statement s's own instance locations with no
// fallback (nil when s has no code). The slice is shared: callers must
// not modify it.
func (t *Table) InstancesOf(s int) []Loc {
	if s < 0 || s >= len(t.stmtInst) {
		return nil
	}
	return t.stmtInst[s]
}

// HasOwnLoc reports whether statement s maps to its own code (no fallback).
func (t *Table) HasOwnLoc(s int) bool {
	return s >= 0 && s < t.NumStmts && t.stmtLoc[s].Block != nil
}

// VarsInScope returns the Object.IDs of the function's locals (and
// parameters) in scope at s, in declaration order; the objects are the
// asking Func's Decl.Locals at those IDs. None is in scope outside the
// function's statements, because the checker clamps every scope to them.
// The returned slice is cached per statement and shared across calls:
// callers must not modify it.
func (t *Table) VarsInScope(s int) []int32 {
	if s >= 0 && s < len(t.varsAt) {
		return t.varsAt[s]
	}
	return nil
}

// SizeBytes estimates the table's resident size (statement locations plus
// the per-statement instance and scope caches), for memory-budget
// accounting. It charges the capacity of every backing array, rounded up
// as the heap rounds an allocation; a backing shared by several
// statements' slices is charged once per slice, which only overcounts.
func (t *Table) SizeBytes() int64 {
	hdr := int64(unsafe.Sizeof([]Loc(nil)))
	locSize := int64(unsafe.Sizeof(Loc{}))
	idSize := int64(unsafe.Sizeof(int32(0)))
	var insts, vars int64
	for _, ls := range t.stmtInst {
		insts += int64(cap(ls)) * locSize
	}
	for _, vs := range t.varsAt {
		vars += int64(cap(vs)) * idSize
	}
	return mach.HeapBytes(int64(unsafe.Sizeof(*t))) +
		mach.HeapBytes(int64(cap(t.stmtLoc))*locSize) +
		mach.HeapBytes(int64(cap(t.stmtInst))*hdr) + mach.HeapBytes(insts) +
		mach.HeapBytes(int64(cap(t.varsAt))*hdr) + mach.HeapBytes(vars)
}

// StmtOfLoc returns the statement whose code region covers the given
// location, preferring the instruction's own Stmt tag: this is the map the
// debugger uses to report faults and interrupts in source terms.
func StmtOfLoc(l Loc) int {
	if l.Block == nil {
		return -1
	}
	// The instruction itself knows its statement; scan backward for the
	// nearest tagged instruction if this one is synthetic.
	for i := l.Idx; i >= 0; i-- {
		if i < len(l.Block.Instrs) && l.Block.Instrs[i].Stmt >= 0 {
			return int(l.Block.Instrs[i].Stmt)
		}
	}
	for i := l.Idx + 1; i < len(l.Block.Instrs); i++ {
		if l.Block.Instrs[i].Stmt >= 0 {
			return int(l.Block.Instrs[i].Stmt)
		}
	}
	return -1
}
