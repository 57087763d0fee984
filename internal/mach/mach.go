// Package mach defines the instruction-level representation of mcc: a
// virtual MIPS-like load/store target. Lowering transfers the debugging
// annotations and marker pseudo-instructions from the mid-level IR onto
// machine instructions (§3 of the paper: "IR marker nodes are lowered to
// special marker instructions that convey essentially the same information").
//
// Registers are numbered virtually during lowering (one vreg per promoted
// source variable or temporary, preserving the IR's dense value space);
// register allocation later rewrites them to physical registers. Integer
// and float registers form separate classes.
package mach

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Physical register counts of the virtual target, mirroring a MIPS R3000
// with reserved registers removed (the paper notes 26 integer and 16 FP
// registers available for allocation; we reserve a few for the assembler,
// as cmcc would).
const (
	NumIntRegs   = 18
	NumFloatRegs = 12
)

// Opcode enumerates machine operations.
type Opcode int8

// Opcodes.
const (
	NOP Opcode = iota

	// Integer ALU (Dst, A, B; B may be an immediate).
	ADD
	SUB
	MUL
	DIV
	REM
	SHL
	SHR
	OR
	XOR
	SEQ
	SNE
	SLT
	SLE
	SGT
	SGE
	NEG
	NOT

	// Float ALU.
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FSEQ
	FSNE
	FSLT
	FSLE
	FSGT
	FSGE

	// Conversions.
	CVTIF // int -> float
	CVTFI // float -> int

	// Data movement.
	MOV   // Dst = A (register or immediate)
	LA    // Dst = address of Sym (global or frame object)
	LW    // Dst = int mem[A + Off]
	SW    // int mem[A + Off] = B
	FLW   // Dst = float mem[A + Off]
	FSW   // float mem[A + Off] = B
	LWFP  // Dst = int mem[fp + Off] (spill reload)
	SWFP  // int mem[fp + Off] = B (spill store)
	FLWFP // float spill reload
	FSWFP // float spill store
	GETP  // Dst = incoming parameter #ParamIdx

	// Control.
	BNEZ // branch to Succs[0] if A != 0, else Succs[1]
	J    // jump to Succs[0]
	CALL // Dst? = Callee(Args...)
	RET  // return A?

	// Pseudo.
	PRINT
	MARKDEAD  // debugger marker: dead assignment to MarkObj eliminated
	MARKAVAIL // debugger marker: redundant assignment to MarkObj eliminated
)

var opcodeNames = map[Opcode]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	SHL: "shl", SHR: "shr", OR: "or", XOR: "xor",
	SEQ: "seq", SNE: "sne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
	NEG: "neg", NOT: "not",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FSEQ: "fseq", FSNE: "fsne", FSLT: "fslt", FSLE: "fsle", FSGT: "fsgt", FSGE: "fsge",
	CVTIF: "cvt.if", CVTFI: "cvt.fi",
	MOV: "mov", LA: "la", LW: "lw", SW: "sw", FLW: "flw", FSW: "fsw",
	LWFP: "lw.fp", SWFP: "sw.fp", FLWFP: "flw.fp", FSWFP: "fsw.fp",
	GETP: "getp", BNEZ: "bnez", J: "j", CALL: "call", RET: "ret",
	PRINT: "print", MARKDEAD: "markdead", MARKAVAIL: "markavail",
}

func (o Opcode) String() string { return opcodeNames[o] }

// Latency returns the issue-to-result latency in cycles, used by the list
// scheduler and the simulator's cycle accounting.
func (o Opcode) Latency() int {
	switch o {
	case MUL:
		return 4
	case DIV, REM:
		return 20
	case LW, FLW, LWFP, FLWFP:
		return 2
	case FADD, FSUB, FNEG, CVTIF, CVTFI:
		return 2
	case FMUL:
		return 4
	case FDIV:
		return 12
	case FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return 2
	case CALL:
		return 2
	case MARKDEAD, MARKAVAIL, NOP:
		return 0
	}
	return 1
}

// RegClass distinguishes the two register files.
type RegClass int8

// Register classes.
const (
	IntClass RegClass = iota
	FloatClass
)

// OpdKind discriminates machine operands.
type OpdKind int8

// Operand kinds.
const (
	None OpdKind = iota
	Reg          // register (virtual before allocation, physical after)
	Imm          // integer immediate
	FImm         // float immediate
)

// Opd is a machine operand. R is an int32 packed with Kind and Class, and
// a float immediate keeps its bits in Imm, so an operand is 16 bytes:
// register numbers stay far below 2^31 (the spill decoder refuses anything
// wider).
type Opd struct {
	R     int32 // register number
	Kind  OpdKind
	Class RegClass
	Imm   int64 // integer immediate, or a float immediate's Float64bits
}

// R_ makes an integer register operand.
func R_(r int) Opd { return Opd{Kind: Reg, Class: IntClass, R: int32(r)} }

// FR makes a float register operand.
func FR(r int) Opd { return Opd{Kind: Reg, Class: FloatClass, R: int32(r)} }

// I_ makes an integer immediate.
func I_(v int64) Opd { return Opd{Kind: Imm, Imm: v} }

// F_ makes a float immediate.
func F_(v float64) Opd { return Opd{Kind: FImm, Imm: int64(math.Float64bits(v))} }

// Float is a float immediate's value, or 0 for any other operand.
func (o Opd) Float() float64 {
	if o.Kind != FImm {
		return 0
	}
	return math.Float64frombits(uint64(o.Imm))
}

// IsReg reports whether o is a register operand.
func (o Opd) IsReg() bool { return o.Kind == Reg }

// Same reports operand identity. Float immediates compare as floats, so
// -0 is the same as +0 and a NaN is the same as nothing.
func (o Opd) Same(p Opd) bool {
	if o.Kind == FImm && p.Kind == FImm {
		return o.R == p.R && o.Class == p.Class && o.Float() == p.Float()
	}
	return o == p
}

func (o Opd) String() string {
	switch o.Kind {
	case Reg:
		if o.Class == FloatClass {
			return fmt.Sprintf("f%d", o.R)
		}
		return fmt.Sprintf("r%d", o.R)
	case Imm:
		return fmt.Sprintf("%d", o.Imm)
	case FImm:
		return fmt.Sprintf("%g", o.Float())
	}
	return "_"
}

// ObjRef names a source object without a pointer, in the numbering the
// spill codec writes: 0 is none, 2·ID+1 a local (or parameter) of the
// function, 2·ID+2 a global, where ID is the Object.ID the checker
// assigns. Resolve maps a ref back to its object.
type ObjRef int32

// RefOf returns o's ref, or 0 for nil.
func RefOf(o *ast.Object) ObjRef {
	switch {
	case o == nil:
		return 0
	case o.Kind == ast.ObjGlobal:
		return ObjRef(2*o.ID + 2)
	}
	return ObjRef(2*o.ID + 1)
}

func (r ObjRef) String() string {
	switch {
	case r == 0:
		return "_"
	case r.IsGlobal():
		return fmt.Sprintf("global#%d", r.ID())
	}
	return fmt.Sprintf("local#%d", r.ID())
}

// IsGlobal reports whether r names a global.
func (r ObjRef) IsGlobal() bool { return r > 0 && r%2 == 0 }

// ID is the Object.ID r names (meaningless for 0).
func (r ObjRef) ID() int { return int(r-1) / 2 }

// Resolve maps r to its object: a local indexes locals (a function's
// Decl.Locals), a global indexes globals (the program's Globals), both by
// Object.ID. It returns nil for 0 and for a ref past its table.
func Resolve(r ObjRef, locals, globals []*ast.Object) *ast.Object {
	tab := locals
	if r.IsGlobal() {
		tab = globals
	}
	if r <= 0 || r.ID() >= len(tab) {
		return nil
	}
	return tab[r.ID()]
}

// Instr is one machine instruction. It is split into a hot record,
// the fields most instructions carry and every analysis reads, and a cold
// side record (Cold) for the fields only calls, prints, parameter fetches,
// markers and pass-inserted code carry; Cold is nil on the rest (about
// nine instructions in ten). Source objects are named by ObjRef, so Cold
// is the only pointer an instruction holds, and with 16-byte operands an
// instruction is 96 bytes.
type Instr struct {
	Dst  Opd
	A, B Opd
	Off  int64  // addressing offset for LW/SW/FLW/FSW
	Sym  ObjRef // LA: global or frame object

	// DefObj tags the source variable this instruction defines. It is
	// assigned at lowering time from the virtual register numbering and
	// survives register allocation (which rewrites register numbers) and
	// scheduling (which moves whole instructions), so the debugger
	// analyses can recognize source-variable definitions in the final
	// code.
	DefObj ObjRef

	// ReplacedVar, Hoisted and Sunk are the IR annotations of the same
	// names (ir.Ann); the rest of ir.Ann lives in Cold.
	ReplacedVar ObjRef

	Stmt    int32
	OrigIdx int32
	// PreSched is the instruction's index within its block immediately
	// before scheduling ran (meaningful only when Func.Scheduled). The
	// pre-scheduling block order is the source-dynamic order of the
	// block's code, so comparing PreSched against a breakpoint
	// instruction's PreSched tells the debugger whether the scheduler
	// moved this instruction across the stop — OrigIdx cannot serve here
	// because passes that rebuild instructions stamp fresh emission
	// indices.
	PreSched int32

	// Cold holds the rarely set fields; nil when all of them are zero.
	// Each instruction owns its record: ReplaceReg rewrites it in place.
	Cold *Cold

	Op      Opcode
	Hoisted bool
	Sunk    bool
}

// Cold is the side record of an instruction's rarely set fields.
type Cold struct {
	Callee   string
	Args     []Opd
	PrintFmt []PrintArg
	ParamIdx int32

	MarkObj   ObjRef // MARKDEAD / MARKAVAIL
	MarkAlias Opd    // optional: operand holding the eliminated value

	// InsertedBy and Recover are the IR annotations of the same names
	// (ir.Ann).
	InsertedBy string
	Recover    Recovery
}

// Recovery is a linear recovery link, V = (X - B) / A where X is the
// instruction's result (ir.LinRecovery with V named by ref). Var is 0 when
// the instruction has none.
type Recovery struct {
	Var  ObjRef
	A, B int64
}

// EnsureCold returns i's cold record, allocating an empty one if i has
// none.
func (i *Instr) EnsureCold() *Cold {
	if i.Cold == nil {
		i.Cold = new(Cold)
	}
	return i.Cold
}

// Callee is the called function's name (CALL), or "".
func (i *Instr) Callee() string {
	if i.Cold == nil {
		return ""
	}
	return i.Cold.Callee
}

// Args are the call arguments (CALL), or nil.
func (i *Instr) Args() []Opd {
	if i.Cold == nil {
		return nil
	}
	return i.Cold.Args
}

// PrintFmt is the PRINT argument list, or nil.
func (i *Instr) PrintFmt() []PrintArg {
	if i.Cold == nil {
		return nil
	}
	return i.Cold.PrintFmt
}

// ParamIdx is the incoming parameter number (GETP), or 0.
func (i *Instr) ParamIdx() int {
	if i.Cold == nil {
		return 0
	}
	return int(i.Cold.ParamIdx)
}

// MarkObj is the variable a marker stands for (MARKDEAD / MARKAVAIL), or
// 0.
func (i *Instr) MarkObj() ObjRef {
	if i.Cold == nil {
		return 0
	}
	return i.Cold.MarkObj
}

// MarkAlias is the operand holding a marker's eliminated value, or a None
// operand.
func (i *Instr) MarkAlias() Opd {
	if i.Cold == nil {
		return Opd{}
	}
	return i.Cold.MarkAlias
}

// InsertedBy names the pass that synthesized the instruction, or "".
func (i *Instr) InsertedBy() string {
	if i.Cold == nil {
		return ""
	}
	return i.Cold.InsertedBy
}

// Recover is the instruction's linear recovery link; its Var is 0 when
// there is none.
func (i *Instr) Recover() Recovery {
	if i.Cold == nil {
		return Recovery{}
	}
	return i.Cold.Recover
}

// PrintArg is one element of a PRINT.
type PrintArg struct {
	Str   string
	IsStr bool
	Val   Opd
}

// IsMarker reports whether the instruction is a debugger marker.
func (i *Instr) IsMarker() bool { return i.Op == MARKDEAD || i.Op == MARKAVAIL }

// IsTerm reports whether the instruction ends a block.
func (i *Instr) IsTerm() bool { return i.Op == BNEZ || i.Op == J || i.Op == RET }

// Uses appends the registers read by i to buf.
func (i *Instr) Uses(buf []Opd) []Opd {
	add := func(o Opd) {
		if o.IsReg() {
			buf = append(buf, o)
		}
	}
	switch i.Op {
	case SW, FSW:
		add(i.A)
		add(i.B)
	case SWFP, FSWFP:
		add(i.B)
	case CALL:
		for _, a := range i.Args() {
			add(a)
		}
	case PRINT:
		for _, a := range i.PrintFmt() {
			if !a.IsStr {
				add(a.Val)
			}
		}
	case MARKDEAD, MARKAVAIL:
		// MarkAlias is diagnostic only: it must not keep values alive.
	default:
		add(i.A)
		add(i.B)
	}
	return buf
}

// Def returns the register written by i, or a None operand.
func (i *Instr) Def() Opd {
	switch i.Op {
	case SW, FSW, SWFP, FSWFP, BNEZ, J, RET, PRINT, MARKDEAD, MARKAVAIL, NOP:
		return Opd{}
	case CALL:
		return i.Dst // may be None for void calls
	}
	return i.Dst
}

// ReplaceReg substitutes register old with new in all positions (including
// the destination) and reports the number of replacements.
func (i *Instr) ReplaceReg(old, new Opd, includeDst bool) int {
	n := 0
	rep := func(o *Opd) {
		if o.Same(old) {
			*o = new
			n++
		}
	}
	rep(&i.A)
	rep(&i.B)
	if includeDst {
		rep(&i.Dst)
	}
	if c := i.Cold; c != nil {
		for k := range c.Args {
			rep(&c.Args[k])
		}
		for k := range c.PrintFmt {
			if !c.PrintFmt[k].IsStr {
				rep(&c.PrintFmt[k].Val)
			}
		}
		rep(&c.MarkAlias)
	}
	return n
}

// String renders i with its object refs in ref form (ObjRef.String);
// StringIn names them.
func (i *Instr) String() string { return i.StringIn(nil) }

// StringIn renders i with its object refs resolved against f (its
// locals and globals) and printed by name; with a nil f, or a ref f
// cannot resolve, a ref prints in ref form.
func (i *Instr) StringIn(f *Func) string {
	name := f.ObjName
	ann := ""
	if i.Hoisted {
		ann += " !hoisted"
	}
	if i.Sunk {
		ann += " !sunk"
	}
	if i.ReplacedVar != 0 {
		ann += " !replaces:" + name(i.ReplacedVar)
	}
	if r := i.Recover(); r.Var != 0 {
		ann += " !recover:" + name(r.Var)
	}
	stmt := ""
	if i.Stmt >= 0 {
		stmt = fmt.Sprintf("  ; s%d", i.Stmt)
	}
	switch i.Op {
	case MOV, NEG, NOT, FNEG, CVTIF, CVTFI:
		return fmt.Sprintf("%s %s, %s%s%s", i.Op, i.Dst, i.A, stmt, ann)
	case LA:
		return fmt.Sprintf("la %s, %s%s%s", i.Dst, name(i.Sym), stmt, ann)
	case LW, FLW:
		return fmt.Sprintf("%s %s, %d(%s)%s%s", i.Op, i.Dst, i.Off, i.A, stmt, ann)
	case SW, FSW:
		return fmt.Sprintf("%s %s, %d(%s)%s%s", i.Op, i.B, i.Off, i.A, stmt, ann)
	case LWFP, FLWFP:
		return fmt.Sprintf("%s %s, %d(fp)%s%s", i.Op, i.Dst, i.Off, stmt, ann)
	case SWFP, FSWFP:
		return fmt.Sprintf("%s %s, %d(fp)%s%s", i.Op, i.B, i.Off, stmt, ann)
	case GETP:
		return fmt.Sprintf("getp %s, #%d%s%s", i.Dst, i.ParamIdx(), stmt, ann)
	case BNEZ:
		return fmt.Sprintf("bnez %s%s", i.A, stmt)
	case J:
		return "j" + stmt
	case RET:
		if i.A.Kind != None {
			return fmt.Sprintf("ret %s%s", i.A, stmt)
		}
		return "ret" + stmt
	case CALL:
		args := make([]string, len(i.Args()))
		for k, a := range i.Args() {
			args[k] = a.String()
		}
		if i.Dst.Kind != None {
			return fmt.Sprintf("call %s, %s(%s)%s%s", i.Dst, i.Callee(), strings.Join(args, ", "), stmt, ann)
		}
		return fmt.Sprintf("call %s(%s)%s%s", i.Callee(), strings.Join(args, ", "), stmt, ann)
	case PRINT:
		var parts []string
		for _, a := range i.PrintFmt() {
			if a.IsStr {
				parts = append(parts, fmt.Sprintf("%q", a.Str))
			} else {
				parts = append(parts, a.Val.String())
			}
		}
		return "print " + strings.Join(parts, ", ") + stmt
	case MARKDEAD:
		return fmt.Sprintf("-- markdead %s%s", name(i.MarkObj()), stmt)
	case MARKAVAIL:
		return fmt.Sprintf("-- markavail %s%s", name(i.MarkObj()), stmt)
	case NOP:
		return "nop"
	}
	return fmt.Sprintf("%s %s, %s, %s%s%s", i.Op, i.Dst, i.A, i.B, stmt, ann)
}

// Block is one machine basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
	// LoopDepth is copied from the IR for spill cost heuristics.
	LoopDepth int
}

func (b *Block) String() string { return fmt.Sprintf("L%d", b.ID) }

// RemoveAt deletes the instruction at idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// Term returns the terminator, or nil.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerm() {
		return nil
	}
	return t
}

// Func is one machine function. Its body (Blocks, Entry, FrameOff,
// VarLoc) names objects by ObjRef and Object.ID only, and Decl and Globals
// bind it to one front end, so the function cache shares one body among
// the Funcs of several compilations. Nothing mutates a finished body.
type Func struct {
	Name   string
	Decl   *ast.FuncDecl
	Blocks []*Block
	Entry  *Block

	// Globals is the program's globals by Object.ID (the checker's
	// sem.Program.Globals), which the function's global refs resolve
	// against; its locals resolve against Decl.Locals.
	Globals []*ast.Object

	// NumVregs counts virtual registers; vregs [0, NumVars) are the
	// promoted source variables (by Object.ID), matching the IR's value
	// space so the debugger can map variables to registers.
	NumVregs int
	NumVars  int

	// FrameOff is each local's frame offset, by Object.ID, or -1 for a
	// local that does not live in the frame. The frame objects (arrays,
	// addressed scalars, aggregates SROA kept) are laid out in ID order,
	// so their offsets ascend with their IDs.
	FrameOff  []int64
	FrameSize int64

	// Allocated is set once register allocation has rewritten vregs to
	// physical registers.
	Allocated bool
	// VarLoc is each local's allocated location, by Object.ID, filled by
	// the register allocator; it is empty when f is not allocated.
	VarLoc []Loc
	// Scheduled is set once the list scheduler has run.
	Scheduled bool

	// lazy is set on a stub (Program.Defer): until Load, the body
	// (Blocks, Entry, FrameOff, VarLoc) is empty and only its verified
	// encoding is held.
	lazy *lazyBody
}

// lazyBody is a stub's deferred body: its encoding, and the program whose
// decoder fills it and whose load hook is charged for it.
type lazyBody struct {
	once   sync.Once
	loaded atomic.Bool
	prog   *Program
	enc    []byte
	decode func(stub *Func, enc []byte) (*Func, int64)
}

// Load fills f's body if f is a stub whose body is still encoded; on any
// other function it does nothing. The body is decoded once, however many
// goroutines call Load, and each returns only once it is filled. Every
// reader of a body (the simulator's flattening, the analyses, and the
// walks over a whole program) calls Load first; the fields a stub holds
// (Name, Decl, Globals, the flags, NumVregs, NumVars, FrameSize) need none.
// Load has no error path: a stub's encoding was checked in full when it
// was read.
func (f *Func) Load() {
	l := f.lazy
	if l == nil {
		return
	}
	l.once.Do(func() {
		g, cost := l.decode(f, l.enc)
		f.setBody(g)
		l.loaded.Store(true)
		l.prog.loadMu.Lock()
		hook := l.prog.onLoad
		l.prog.loadMu.Unlock()
		if hook != nil {
			hook(cost)
		}
	})
}

// Loaded reports whether f's body is in memory: true for every function
// but a stub not yet loaded.
func (f *Func) Loaded() bool { return f.lazy == nil || f.lazy.loaded.Load() }

// Encoding returns the verified encoding a stub's body is decoded from,
// or nil when f is not a stub (Program.Defer). It is kept after Load.
func (f *Func) Encoding() []byte {
	if f.lazy == nil {
		return nil
	}
	return f.lazy.enc
}

// LocKind tells where a variable lives after allocation.
type LocKind int8

// Location kinds.
const (
	LocNone  LocKind = iota // never materialized
	LocReg                  // physical register
	LocSpill                // frame slot
)

// Loc is an allocated variable location.
type Loc struct {
	Kind  LocKind
	Class RegClass
	R     int   // physical register (LocReg)
	Off   int64 // frame offset (LocSpill)
}

func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		if l.Class == FloatClass {
			return fmt.Sprintf("f%d", l.R)
		}
		return fmt.Sprintf("r%d", l.R)
	case LocSpill:
		return fmt.Sprintf("%d(fp)", l.Off)
	}
	return "<none>"
}

// Obj resolves r against f's locals and globals (Resolve); a nil f
// resolves nothing.
func (f *Func) Obj(r ObjRef) *ast.Object {
	if f == nil {
		return nil
	}
	var locals []*ast.Object
	if f.Decl != nil {
		locals = f.Decl.Locals
	}
	return Resolve(r, locals, f.Globals)
}

// localID is o's Object.ID when o is one of f's locals (or parameters),
// the object its ref resolves to in f, and -1 otherwise.
func (f *Func) localID(o *ast.Object) int {
	if r := RefOf(o); r != 0 && !r.IsGlobal() && f.Obj(r) == o {
		return r.ID()
	}
	return -1
}

// FrameOffOf returns o's frame offset when o is one of f's locals and
// lives in f's frame.
func (f *Func) FrameOffOf(o *ast.Object) (int64, bool) {
	if id := f.localID(o); id >= 0 && id < len(f.FrameOff) && f.FrameOff[id] >= 0 {
		return f.FrameOff[id], true
	}
	return 0, false
}

// LocOf returns o's allocated location when f is allocated and o is one
// of its locals.
func (f *Func) LocOf(o *ast.Object) (Loc, bool) {
	if id := f.localID(o); id >= 0 && id < len(f.VarLoc) {
		return f.VarLoc[id], true
	}
	return Loc{}, false
}

// Graph returns f's control-flow graph in the solver's form, blocks
// numbered by position in f.Blocks.
func (f *Func) Graph() dataflow.Graph {
	idx := map[*Block]int{}
	for i, b := range f.Blocks {
		idx[b] = i
	}
	g := dataflow.Graph{N: len(f.Blocks), Succs: make([][]int, len(f.Blocks)), Preds: make([][]int, len(f.Blocks))}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			g.Succs[i] = append(g.Succs[i], idx[s])
			g.Preds[idx[s]] = append(g.Preds[idx[s]], i)
		}
	}
	return g
}

// ObjName is the name of the object r names, or r in ref form
// (ObjRef.String) when f cannot resolve it.
func (f *Func) ObjName(r ObjRef) string {
	if o := f.Obj(r); o != nil {
		return o.Name
	}
	return r.String()
}

// NewBlock creates and registers a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// RecomputePreds rebuilds predecessor lists.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// NewVreg allocates a fresh virtual register of the given class.
func (f *Func) NewVreg(class RegClass) Opd {
	r := f.NumVregs
	f.NumVregs++
	return Opd{Kind: Reg, Class: class, R: int32(r)}
}

// String renders the function for dumps and golden tests.
func (f *Func) String() string {
	f.Load()
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:  ; frame=%d bytes\n", f.Name, f.FrameSize)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "    %s\n", in.StringIn(f))
		}
		if t := b.Term(); t != nil {
			switch t.Op {
			case J:
				fmt.Fprintf(&sb, "    -> %s\n", b.Succs[0])
			case BNEZ:
				fmt.Fprintf(&sb, "    -> then %s else %s\n", b.Succs[0], b.Succs[1])
			}
		}
	}
	return sb.String()
}

// Program is a lowered translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*ast.Object
	// GlobalOff is each global's offset in the global data segment, by
	// Object.ID; look a global up with GlobalOffOf.
	GlobalOff  []int64
	GlobalSize int64
	// GlobalInit is each global's initial value, by Object.ID: the IR
	// program's table (ir.Program.GlobalInit), shared.
	GlobalInit []ir.Operand

	// predecoded caches the simulator's predecoded form of this program
	// (internal/vm flattens each function into a pc-indexed instruction
	// array when it is first entered; every VM over the program shares
	// it). The
	// slot is opaque so mach stays free of any dependency on the
	// simulator's representation. Programs are immutable once compiled,
	// which is what makes a compute-once cache sound.
	predecodeMu sync.Mutex
	predecoded  any

	// onLoad, when set, is told the byte cost of every stub body loaded
	// after it was set (SetLoadHook).
	loadMu sync.Mutex
	onLoad func(int64)
}

// GlobalOffOf returns o's offset in the global data when o is one of p's
// globals.
func (p *Program) GlobalOffOf(o *ast.Object) (int64, bool) {
	if r := RefOf(o); r.IsGlobal() && r.ID() < len(p.GlobalOff) && Resolve(r, nil, p.Globals) == o {
		return p.GlobalOff[r.ID()], true
	}
	return 0, false
}

// Defer makes f a stub of p: it drops f's body (Blocks, Entry, FrameOff,
// VarLoc) and keeps enc, the body's verified encoding. The first Load
// takes the body of the function decode(f, enc) returns, and charges the
// byte cost decode returns with it. decode must not fail, so a caller
// defers only an encoding it has decoded in full.
func (p *Program) Defer(f *Func, enc []byte, decode func(stub *Func, enc []byte) (*Func, int64)) {
	f.setBody(&Func{})
	f.lazy = &lazyBody{prog: p, enc: enc, decode: decode}
}

// setBody gives f g's body.
func (f *Func) setBody(g *Func) {
	f.Blocks, f.Entry = g.Blocks, g.Entry
	f.FrameOff, f.VarLoc = g.FrameOff, g.VarLoc
}

// SetLoadHook registers fn to be called with the byte cost of every stub
// body loaded after this point (at most one hook is active). The artifact
// store uses it to charge bodies against their artifact's memory budget.
func (p *Program) SetLoadHook(fn func(int64)) {
	p.loadMu.Lock()
	p.onLoad = fn
	p.loadMu.Unlock()
}

// Predecoded returns the cached predecoded form of the program, invoking
// build exactly once (per program) to produce it. Concurrent callers
// block until the first build completes and then share its result.
func (p *Program) Predecoded(build func() any) any {
	p.predecodeMu.Lock()
	defer p.predecodeMu.Unlock()
	if p.predecoded == nil {
		p.predecoded = build()
	}
	return p.predecoded
}

// LookupFunc finds a function by name, or nil.
func (p *Program) LookupFunc(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String renders the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// HeapBytes bounds the heap footprint of an n-byte allocation: small
// objects are rounded up to a size class (at most 1/8 more, or 16 bytes
// for the smallest classes) and large ones to whole 8 KiB pages.
func HeapBytes(n int64) int64 {
	if n == 0 {
		return 0
	}
	if n > 32<<10 {
		return (n + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return n + n/8 + 16
}
