package compile

// Per-function cache keys for incremental compilation.
//
// A FuncKey is a content hash of everything the per-function back end
// (opt.RunFunc → lower.LowerFunc → regalloc.AllocateFunc →
// sched.ScheduleFunc) consumes for one function: the freshly built,
// unoptimized IR of the function (including every debugging annotation the
// builder emits), the function's declaration environment (locals table,
// scope extents, statement count), the global data environment (object IDs,
// types, layout, initializers — call lowering and address selection read
// these), and the pipeline Config. Two functions with equal keys compile to
// machine code with identical canonical renderings, so a cached per-function
// artifact keyed this way can be stitched into any program whose front end
// reproduces the key — even if the function moved to different source lines,
// because source positions are rebound from the current front end on decode
// (see dec.fn) and are deliberately not part of the key.
//
// The hash covers object references via the same encoding the spill codec
// uses (encObj: dense per-function local IDs, per-program global IDs), which
// the checker assigns deterministically per function — so the key is stable
// across unrelated edits elsewhere in the file, which is exactly what makes
// one-function edits recompile one function.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"repro/internal/ast"
	"repro/internal/ir"
)

// funcKeyVersion guards the canonical hash layout; bump on any change to
// what or how hashFunc/GlobalsSigOf write.
const funcKeyVersion = 2

// FuncKey identifies one function's compiled artifact by content.
type FuncKey [sha256.Size]byte

func (k FuncKey) String() string { return fmt.Sprintf("%x", k[:8]) }

// GlobalsSig digests the per-program environment shared by every function:
// the global objects (order, IDs, names, types, addressedness), their
// initializers, and the Config. It is computed once per compilation and
// folded into each function's key.
type GlobalsSig [sha256.Size]byte

// GlobalsSigOf hashes the global environment of p under cfg.
func GlobalsSigOf(p *ir.Program, cfg Config) GlobalsSig {
	w := newKeyWriter()
	w.int(funcKeyVersion)
	w.int(spillVersion)
	// Config is a flat struct of value fields; %+v is a canonical rendering.
	w.str(fmt.Sprintf("%+v", cfg))
	w.int(len(p.Globals))
	for _, g := range p.Globals {
		w.obj(g)
	}
	w.int(len(p.GlobalInit))
	for _, g := range sortedObjs(p.GlobalInit) {
		w.i32(encObj(g))
		w.opd(p.GlobalInit[g])
	}
	return w.sum()
}

// FuncKeyOf hashes one function's back-end input: its declaration
// environment plus its pre-optimization IR, scoped by the program-wide
// signature. Call it on the freshly built IR, before opt.RunFunc mutates it.
func FuncKeyOf(f *ir.Func, sig GlobalsSig) FuncKey {
	w := newKeyWriter()
	w.bytes(sig[:])

	// Declaration environment: the analyses and the lowering read the
	// locals table, scope extents and statement count. The function name is
	// hashed because dec.fn rebinds the artifact to the current Decl by
	// name.
	w.str(f.Name)
	w.int(len(f.Decl.Params))
	w.str(f.Decl.Ret.String())
	w.int(f.Decl.NumStmts)
	w.int(len(f.Decl.Locals))
	for _, o := range f.Decl.Locals {
		w.obj(o)
	}

	// IR shape.
	w.int(f.NumTemps)
	w.int(len(f.FrameObjects))
	for _, o := range f.FrameObjects {
		w.i32(encObj(o))
	}
	blockIdx := make(map[*ir.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = int32(i)
	}
	w.int(len(f.Blocks))
	if f.Entry != nil {
		w.i32(blockIdx[f.Entry])
	} else {
		w.i32(-1)
	}
	for _, b := range f.Blocks {
		w.int(b.ID)
		w.int(len(b.Succs))
		for _, s := range b.Succs {
			w.i32(blockIdx[s])
		}
		w.int(len(b.Instrs))
		for _, in := range b.Instrs {
			w.instr(in)
		}
	}

	return w.sum()
}

// keyWriter appends canonical, self-delimiting values to a buffer and
// hands it to the hash each time it fills, not once per value: the hash
// sees the same bytes in a few large writes.
type keyWriter struct {
	h hash.Hash
	b []byte
}

// keyChunk is the buffer size at which a keyWriter flushes to its hash.
const keyChunk = 1024

func newKeyWriter() *keyWriter {
	return &keyWriter{h: sha256.New(), b: make([]byte, 0, keyChunk)}
}

// sum hashes everything written.
func (w *keyWriter) sum() (s [sha256.Size]byte) {
	w.h.Write(w.b)
	w.h.Sum(s[:0])
	return s
}

func (w *keyWriter) flushFull() {
	if len(w.b) >= keyChunk {
		w.h.Write(w.b)
		w.b = w.b[:0]
	}
}

func (w *keyWriter) bytes(b []byte) {
	w.b = append(w.b, b...)
	w.flushFull()
}

func (w *keyWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
	w.flushFull()
}

func (w *keyWriter) int(v int)     { w.u64(uint64(int64(v))) }
func (w *keyWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *keyWriter) i32(v int32)   { w.u64(uint64(int64(v))) }
func (w *keyWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *keyWriter) bool(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) str(s string) {
	w.int(len(s))
	w.b = append(w.b, s...)
	w.flushFull()
}

// obj hashes an object declaration (identity, type, storage class and scope
// extent). References from instruction operands use the compact encObj ref
// instead; full declarations are hashed once per table.
func (w *keyWriter) obj(o *ast.Object) {
	w.i32(encObj(o))
	if o == nil {
		return
	}
	w.str(o.Name)
	w.int(int(o.Kind))
	w.str(o.Type.String())
	// StructType.String() is just "struct <name>": the layout (ordered field
	// names and types) determines member offsets and the SROA decomposition,
	// so it must be part of the key — reordering fields must miss the cache.
	if st, ok := o.Type.(*ast.StructType); ok {
		w.int(len(st.Fields))
		for _, fld := range st.Fields {
			w.str(fld.Name)
			w.str(fld.Type.String())
		}
	}
	w.bool(o.Addressed)
	w.int(o.ScopeStart)
	w.int(o.ScopeEnd)
	// Member objects carry their aggregate linkage: which base they belong
	// to and at which field slot (drives unsplit memory access offsets).
	w.i32(encObj(o.Base))
	w.int(o.FieldIdx)
}

func (w *keyWriter) opd(o ir.Operand) {
	w.int(int(o.Kind))
	w.int(int(o.Ty))
	w.int(o.TID)
	w.i32(encObj(o.Obj))
	w.i64(o.Int)
	w.f64(o.Fl)
}

func (w *keyWriter) instr(in *ir.Instr) {
	w.int(int(in.Kind))
	w.int(int(in.Op))
	w.opd(in.Dst)
	w.opd(in.A)
	w.opd(in.B)
	w.i64(in.Off)
	w.i32(encObj(in.AddrObj))
	w.str(in.Callee)
	w.int(len(in.Args))
	for _, a := range in.Args {
		w.opd(a)
	}
	w.int(len(in.PrintFmt))
	for _, a := range in.PrintFmt {
		w.bool(a.IsStr)
		w.str(a.Str)
		w.opd(a.Val)
	}
	w.int(in.ParamIdx)
	w.i32(encObj(in.MarkObj))
	w.int(in.Stmt)
	w.int(in.OrigIdx)
	w.bool(in.Ann.Hoisted)
	w.bool(in.Ann.Sunk)
	w.str(in.Ann.InsertedBy)
	w.i32(encObj(in.Ann.ReplacedVar))
	if r := in.Ann.Recover; r != nil {
		w.bool(true)
		w.i32(encObj(r.Var))
		w.i64(r.A)
		w.i64(r.B)
	} else {
		w.bool(false)
	}
}
