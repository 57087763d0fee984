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
// body keyed this way can be shared by any program whose front end
// reproduces the key — even if the function moved to different source lines,
// because a body holds statement IDs, not source positions: positions come
// from the declaration the sharing program's own front end supplies, and are
// deliberately not part of the key.
//
// The hash covers object references via the same encoding the spill codec
// uses (encObj: dense per-function local IDs, per-program global IDs), which
// the checker assigns deterministically per function — so the key is stable
// across unrelated edits elsewhere in the file, which is exactly what makes
// one-function edits recompile one function.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/ast"
	"repro/internal/ir"
)

// funcKeyVersion guards the canonical hash layout; bump on any change to
// what or how hashFunc/GlobalsSigOf write.
const funcKeyVersion = 5

// FuncKey identifies one function's compiled artifact by content.
type FuncKey [sha256.Size]byte

func (k FuncKey) String() string { return hex.EncodeToString(k[:8]) }

// GlobalsSig digests the per-program environment shared by every function:
// the global objects (order, IDs, names, types, addressedness), their
// initializers, and the Config. It is computed once per compilation and
// folded into each function's key.
type GlobalsSig [sha256.Size]byte

// GlobalsSigOf hashes the global environment of p under cfg.
func GlobalsSigOf(p *ir.Program, cfg Config) GlobalsSig {
	w := newKeyWriter()
	w.uint(funcKeyVersion)
	w.uint(configBits(cfg))
	w.uint(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		w.obj(g)
	}
	// The initialized globals, counted first, then in ID order.
	n := 0
	for _, init := range p.GlobalInit {
		if init.Kind != ir.NoOpd {
			n++
		}
	}
	w.uint(uint64(n))
	for id, init := range p.GlobalInit {
		if init.Kind != ir.NoOpd {
			w.ref(p.Globals[id])
			w.opd(init)
		}
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
	// hashed so that a body is shared only under its own name: a hit takes
	// Name and Decl from the current front end, and an identical body of
	// another function is compiled, not shared.
	w.str(f.Name)
	w.uint(uint64(len(f.Decl.Params)))
	w.str(f.Decl.Ret.String())
	w.int(int64(f.Decl.NumStmts))
	w.uint(uint64(len(f.Decl.Locals)))
	for _, o := range f.Decl.Locals {
		w.obj(o)
	}

	// IR shape. A block is named by its ID, which is unique in f; the
	// blocks' IDs are written in order, so an ID stands for a position.
	w.int(int64(f.NumTemps))
	w.uint(uint64(len(f.FrameObjects)))
	for _, o := range f.FrameObjects {
		w.ref(o)
	}
	w.uint(uint64(len(f.Blocks)))
	if f.Entry != nil {
		w.int(int64(f.Entry.ID))
	} else {
		w.int(-1)
	}
	for _, b := range f.Blocks {
		w.int(int64(b.ID))
		w.uint(uint64(len(b.Succs)))
		for _, s := range b.Succs {
			w.int(int64(s.ID))
		}
		w.uint(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			w.instr(in)
		}
	}

	return w.sum()
}

// keyWriter appends a compact encoding of each value to a buffer and
// hands the buffer to the hash each time it fills, not once per value.
// The encoding splits back into its fields: integers are varints (zigzag
// when signed), strings and lists carry their length, and an operand is a
// header byte saying which of its fields follow. A keyWriter is a value
// its caller keeps on the stack, not a heap object.
type keyWriter struct {
	h hash.Hash
	b []byte
}

// keyChunk is the buffer size at which a keyWriter flushes to its hash.
const keyChunk = 1024

func newKeyWriter() keyWriter {
	return keyWriter{h: sha256.New(), b: make([]byte, 0, keyChunk)}
}

// sum hashes everything written. The digest goes through the buffer, so
// the result array stays on the caller's stack.
func (w *keyWriter) sum() (s [sha256.Size]byte) {
	w.h.Write(w.b)
	copy(s[:], w.h.Sum(w.b[:0]))
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

func (w *keyWriter) uint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
	w.flushFull()
}

func (w *keyWriter) int(v int64) {
	w.b = binary.AppendVarint(w.b, v)
	w.flushFull()
}

func (w *keyWriter) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
	w.flushFull()
}

func (w *keyWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
	w.flushFull()
}

// ref writes an object reference in the spill codec's numbering (encObj).
func (w *keyWriter) ref(o *ast.Object) { w.int(int64(encObj(o))) }

// obj hashes an object declaration (identity, type, storage class and scope
// extent). References from instructions use the compact ref instead; full
// declarations are hashed once per table.
func (w *keyWriter) obj(o *ast.Object) {
	w.ref(o)
	if o == nil {
		return
	}
	w.str(o.Name)
	w.int(int64(o.Kind))
	w.str(o.Type.String())
	// StructType.String() is just "struct <name>": the layout (ordered field
	// names and types) determines member offsets and the SROA decomposition,
	// so it must be part of the key — reordering fields must miss the cache.
	if st, ok := o.Type.(*ast.StructType); ok {
		w.uint(uint64(len(st.Fields)))
		for _, fld := range st.Fields {
			w.str(fld.Name)
			w.str(fld.Type.String())
		}
	}
	w.bool(o.Addressed)
	w.int(int64(o.ScopeStart))
	w.int(int64(o.ScopeEnd))
	// Member objects carry their aggregate linkage: which base they belong
	// to and at which field slot (drives unsplit memory access offsets).
	w.ref(o.Base)
	w.int(int64(o.FieldIdx))
}

// Operand header bits: the kind in bits 0–2 and the type in bit 3, then
// which fields follow. An absent operand is the single byte 0.
const (
	keyID  = 1 << 4
	keyInt = 1 << 5
)

func (w *keyWriter) opd(o ir.Operand) {
	h := byte(o.Kind) | byte(o.Ty)<<3
	if o.ID != 0 {
		h |= keyID
	}
	if o.Int != 0 {
		h |= keyInt
	}
	w.b = append(w.b, h)
	if o.ID != 0 {
		w.b = binary.AppendVarint(w.b, int64(o.ID))
	}
	if o.Int != 0 {
		w.b = binary.AppendVarint(w.b, o.Int)
	}
	w.flushFull()
}

func (w *keyWriter) instr(in *ir.Instr) {
	w.b = append(w.b, byte(in.Kind), byte(in.Op))
	w.opd(in.Dst)
	w.opd(in.A)
	w.opd(in.B)
	w.int(in.Off)
	w.ref(in.AddrObj)
	w.str(in.Callee)
	w.uint(uint64(len(in.Args)))
	for _, a := range in.Args {
		w.opd(a)
	}
	w.uint(uint64(len(in.PrintFmt)))
	for _, a := range in.PrintFmt {
		w.bool(a.IsStr)
		w.str(a.Str)
		w.opd(a.Val)
	}
	w.int(int64(in.ParamIdx))
	w.ref(in.MarkObj)
	w.int(int64(in.Stmt))
	w.int(int64(in.OrigIdx))
	w.bool(in.Ann.Hoisted)
	w.bool(in.Ann.Sunk)
	w.str(in.Ann.InsertedBy)
	w.ref(in.Ann.ReplacedVar)
	r := in.Ann.Recover
	w.bool(r != nil)
	if r != nil {
		w.ref(r.Var)
		w.int(r.A)
		w.int(r.B)
	}
}
