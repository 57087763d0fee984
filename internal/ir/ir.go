// Package ir defines mcc's mid-level intermediate representation: a
// control-flow graph of basic blocks holding quad-style instructions over
// compiler temporaries and promoted source variables.
//
// The IR carries the debugging bookkeeping of §3 of the paper:
//
//   - every instruction records the source statement it implements (Stmt)
//     and its original emission order (OrigIdx);
//   - instructions inserted by code motion are annotated Hoisted or Sunk;
//   - expressions that replaced a fetch of a source variable record that
//     variable (ReplacedVar) for recovery;
//   - deleted assignments are replaced by marker pseudo-instructions
//     (MarkDead, MarkAvail) that optimizations ignore but the debugger
//     analyses consume.
package ir

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
)

// Ty is an IR value class: integer word (also pointers) or float.
type Ty int8

// Value classes.
const (
	I Ty = iota // 32-bit integer / pointer word
	F           // floating point
)

func (t Ty) String() string {
	if t == F {
		return "f"
	}
	return "i"
}

// TyOf maps a checked AST type to its IR value class.
func TyOf(t ast.Type) Ty {
	if ast.IsFloat(t) {
		return F
	}
	return I
}

// ---------------------------------------------------------------- operands

// OpdKind discriminates Operand.
type OpdKind int8

// Operand kinds.
const (
	NoOpd  OpdKind = iota
	Temp           // compiler temporary
	Var            // promoted source variable (non-addressed local/param)
	ConstI         // integer constant
	ConstF         // float constant
)

// Operand is one instruction operand or destination. It holds no
// pointer and is 16 bytes: a promoted variable is always a local of its
// own function, so a Var names it by its Object.ID, which is its index in
// the function's Decl.Locals (resolve with Func.Obj), and a float
// constant keeps its bits in Int (read F).
type Operand struct {
	Kind OpdKind
	Ty   Ty
	ID   int32 // temp number (Kind == Temp) or the variable's Object.ID (Kind == Var)
	Int  int64 // value (Kind == ConstI) or Float64bits of the value (Kind == ConstF)
}

// TempOf makes a temp operand.
func TempOf(id int, ty Ty) Operand { return Operand{Kind: Temp, Ty: ty, ID: int32(id)} }

// VarOf makes a promoted-variable operand.
func VarOf(o *ast.Object) Operand { return Operand{Kind: Var, Ty: TyOf(o.Type), ID: int32(o.ID)} }

// CI makes an integer constant operand.
func CI(v int64) Operand { return Operand{Kind: ConstI, Ty: I, Int: v} }

// CF makes a float constant operand.
func CF(v float64) Operand { return Operand{Kind: ConstF, Ty: F, Int: int64(math.Float64bits(v))} }

// F is a float constant's value, or 0 for any other operand.
func (o Operand) F() float64 {
	if o.Kind != ConstF {
		return 0
	}
	return math.Float64frombits(uint64(o.Int))
}

// IsConst reports whether o is a constant.
func (o Operand) IsConst() bool { return o.Kind == ConstI || o.Kind == ConstF }

// Valid reports whether the operand is present.
func (o Operand) Valid() bool { return o.Kind != NoOpd }

// Same reports operand identity (same temp, same variable, or equal const).
// Float constants compare as floats: -0 is the same as +0, and a NaN is
// the same as nothing.
func (o Operand) Same(p Operand) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case Temp, Var:
		return o.ID == p.ID
	case ConstI:
		return o.Int == p.Int
	case ConstF:
		return o.F() == p.F()
	}
	return true
}

// OpdKey identifies an operand within a function, for redundancy keys:
// two operands have equal keys exactly when they name the same temp, the
// same variable, or the same constant (float constants by bit pattern,
// with every NaN equal to every other).
type OpdKey struct {
	Kind OpdKind
	N    int64 // temp number, variable ID, Int, or float bits
}

// canonicalNaN is the bit pattern every NaN constant keys as.
var canonicalNaN = math.Float64bits(math.NaN())

// Key returns the operand's redundancy key.
func (o Operand) Key() OpdKey {
	switch o.Kind {
	case Temp, Var:
		return OpdKey{Kind: o.Kind, N: int64(o.ID)}
	case ConstI:
		return OpdKey{Kind: ConstI, N: o.Int}
	case ConstF:
		if math.IsNaN(o.F()) {
			return OpdKey{Kind: ConstF, N: int64(canonicalNaN)}
		}
		return OpdKey{Kind: ConstF, N: o.Int}
	}
	return OpdKey{}
}

// less orders operand keys, so commutative operands can be put in a
// canonical order.
func (k OpdKey) less(l OpdKey) bool {
	if k.Kind != l.Kind {
		return k.Kind < l.Kind
	}
	return k.N < l.N
}

// String renders the operand without its function: a variable prints as
// local#ID. StringIn names it.
func (o Operand) String() string { return o.StringIn(nil) }

// StringIn renders the operand, naming a variable from f's locals.
func (o Operand) StringIn(f *Func) string {
	switch o.Kind {
	case Temp:
		return fmt.Sprintf("t%d", o.ID)
	case Var:
		if f == nil {
			return fmt.Sprintf("local#%d", o.ID)
		}
		return f.Obj(o).Name
	case ConstI:
		return fmt.Sprintf("%d", o.Int)
	case ConstF:
		return fmt.Sprintf("%g", o.F())
	}
	return "_"
}

// ---------------------------------------------------------------- ops

// Op is an arithmetic/comparison/conversion operator.
type Op int8

// Operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	BOr
	BXor
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	Neg  // unary minus
	Not  // logical not (x == 0)
	CvIF // int -> float
	CvFI // float -> int (truncate)
)

var opNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	Shl: "shl", Shr: "shr", BOr: "or", BXor: "xor",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Neg: "neg", Not: "not", CvIF: "cvif", CvFI: "cvfi",
}

func (o Op) String() string { return opNames[o] }

// IsCmp reports whether the op is a comparison (always yields int 0/1).
func (o Op) IsCmp() bool { return o >= Eq && o <= Ge }

// IsCommutative reports whether a op b == b op a.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, BOr, BXor, Eq, Ne:
		return true
	}
	return false
}

// ---------------------------------------------------------------- instrs

// Kind identifies the instruction form.
type Kind int8

// Instruction kinds.
const (
	BinOp    Kind = iota // Dst = A Op B
	UnOp                 // Dst = Op A
	Copy                 // Dst = A
	Load                 // Dst = mem[A + Off]
	Store                // mem[A + Off] = B
	Addr                 // Dst = address of AddrObj (global / frame object)
	Call                 // Dst? = Callee(Args...)
	Print                // print(PrintArgs...)
	Ret                  // return A?
	Jmp                  // goto Succs[0]
	Br                   // if A != 0 goto Succs[0] else Succs[1]
	GetParam             // Dst = incoming parameter #ParamIdx

	// Debugger marker pseudo-instructions (§3 of the paper). They are
	// ignored by optimizations and carry no runtime semantics.
	MarkDead  // an assignment to MarkObj at Stmt was deleted as dead
	MarkAvail // an assignment to MarkObj at Stmt was deleted as redundant
)

// Ann holds the per-instruction debugging annotations of §3.
type Ann struct {
	// Hoisted marks code inserted by a hoisting transformation (PRE
	// insertion, loop-invariant code motion). A hoisted assignment to a
	// source variable generates hoist reach.
	Hoisted bool
	// Sunk marks code inserted by a sinking transformation (partial dead
	// code elimination).
	Sunk bool
	// InsertedBy names the optimization pass that synthesized this
	// instruction ("" for code emitted from source).
	InsertedBy string
	// ReplacedVar, when non-nil, records that this instruction's value
	// replaced a fetch of the given source variable in the original
	// program (copy/assignment propagation); the variable's value can be
	// recovered from this instruction's result (§2.5).
	ReplacedVar *ast.Object
	// Recover, when non-nil, describes a linear recovery V = (value-B)/A
	// established by induction-variable elimination; the debugger can
	// reconstruct V from the strength-reduced temporary.
	Recover *LinRecovery
}

// LinRecovery records V = (X - B) / A where X is this instruction's result.
type LinRecovery struct {
	Var  *ast.Object
	A, B int64
}

// Instr is one IR instruction. A single struct (rather than an interface
// per kind) keeps rewriting passes simple: they mutate fields in place.
type Instr struct {
	Kind Kind
	Op   Op
	Dst  Operand // destination (Temp or Var); NoOpd if none
	A, B Operand // operands
	Off  int64   // constant addressing offset for Load/Store

	AddrObj  *ast.Object // Addr: the object whose address is taken
	Callee   string      // Call
	Args     []Operand   // Call
	PrintFmt []PrintArg  // Print
	ParamIdx int         // GetParam

	MarkObj *ast.Object // MarkDead / MarkAvail

	// Source bookkeeping.
	Stmt    int // source statement ID; -1 for synthesized code
	OrigIdx int // emission sequence number, for scheduling analysis

	Ann Ann
}

// PrintArg is one element of a print instruction.
type PrintArg struct {
	Str   string
	IsStr bool
	Val   Operand
}

// IsMarker reports whether the instruction is a debugger marker.
func (i *Instr) IsMarker() bool { return i.Kind == MarkDead || i.Kind == MarkAvail }

// IsTerm reports whether the instruction ends a basic block.
func (i *Instr) IsTerm() bool { return i.Kind == Jmp || i.Kind == Br || i.Kind == Ret }

// HasDst reports whether the instruction writes a destination operand.
func (i *Instr) HasDst() bool { return i.Dst.Valid() }

// Uses appends the operands read by the instruction to buf and returns it.
func (i *Instr) Uses(buf []Operand) []Operand {
	add := func(o Operand) {
		if o.Kind == Temp || o.Kind == Var {
			buf = append(buf, o)
		}
	}
	switch i.Kind {
	case BinOp, Store:
		add(i.A)
		add(i.B)
	case UnOp, Copy, Load, Br:
		add(i.A)
	case Ret:
		add(i.A)
	case Call:
		for _, a := range i.Args {
			add(a)
		}
	case Print:
		for _, a := range i.PrintFmt {
			if !a.IsStr {
				add(a.Val)
			}
		}
	}
	return buf
}

// ReplaceUses substitutes operand old with new in all use positions,
// returning the number of replacements.
func (i *Instr) ReplaceUses(old, new Operand) int {
	n := 0
	rep := func(o *Operand) {
		if o.Same(old) {
			*o = new
			n++
		}
	}
	switch i.Kind {
	case BinOp:
		rep(&i.A)
		rep(&i.B)
	case Store:
		rep(&i.A)
		rep(&i.B)
	case UnOp, Copy, Load, Br, Ret:
		rep(&i.A)
	case Call:
		for k := range i.Args {
			rep(&i.Args[k])
		}
	case Print:
		for k := range i.PrintFmt {
			if !i.PrintFmt[k].IsStr {
				rep(&i.PrintFmt[k].Val)
			}
		}
	}
	return n
}

// ExprKey identifies the value computed by a BinOp/UnOp/Copy/Addr
// instruction, for redundancy detection: instructions with equal keys
// compute the same value. Dst is set only by AssignKey.
type ExprKey struct {
	Kind    Kind
	Op      Op
	Dst     OpdKey
	A, B    OpdKey
	AddrObj *ast.Object
}

// ExprKey returns the key of the value the instruction computes.
// Commutative operands are ordered canonically. Instructions whose value
// cannot be keyed (calls, loads — loads are not pure across stores) get
// the zero ExprKey, which no keyable instruction has.
func (i *Instr) ExprKey() ExprKey {
	switch i.Kind {
	case BinOp:
		a, b := i.A.Key(), i.B.Key()
		if i.Op.IsCommutative() && b.less(a) {
			a, b = b, a
		}
		return ExprKey{Kind: BinOp, Op: i.Op, A: a, B: b}
	case UnOp:
		return ExprKey{Kind: UnOp, Op: i.Op, A: i.A.Key()}
	case Copy:
		return ExprKey{Kind: Copy, A: i.A.Key()}
	case Addr:
		return ExprKey{Kind: Addr, AddrObj: i.AddrObj}
	}
	return ExprKey{}
}

// AssignKey is ExprKey plus the destination: it identifies the
// assignment "Dst = value".
func (i *Instr) AssignKey() ExprKey {
	k := i.ExprKey()
	k.Dst = i.Dst.Key()
	return k
}

// Clone returns a deep copy of the instruction (slices copied).
func (i *Instr) Clone() *Instr {
	c := *i
	if i.Args != nil {
		c.Args = append([]Operand(nil), i.Args...)
	}
	if i.PrintFmt != nil {
		c.PrintFmt = append([]PrintArg(nil), i.PrintFmt...)
	}
	return &c
}

// String renders the instruction without its function: variables print
// as local#ID. StringIn names them.
func (i *Instr) String() string { return i.StringIn(nil) }

// StringIn renders the instruction, naming variables from f's locals.
func (i *Instr) StringIn(f *Func) string {
	opd := func(o Operand) string { return o.StringIn(f) }
	ann := ""
	if i.Ann.Hoisted {
		ann += " !hoisted"
	}
	if i.Ann.Sunk {
		ann += " !sunk"
	}
	if i.Ann.ReplacedVar != nil {
		ann += " !replaces:" + i.Ann.ReplacedVar.Name
	}
	if i.Ann.Recover != nil {
		ann += fmt.Sprintf(" !recover:%s=(x-%d)/%d", i.Ann.Recover.Var.Name, i.Ann.Recover.B, i.Ann.Recover.A)
	}
	stmt := ""
	if i.Stmt >= 0 {
		stmt = fmt.Sprintf("  ; s%d", i.Stmt)
	}
	switch i.Kind {
	case BinOp:
		return fmt.Sprintf("%s = %s %s, %s%s%s", opd(i.Dst), i.Op, opd(i.A), opd(i.B), stmt, ann)
	case UnOp:
		return fmt.Sprintf("%s = %s %s%s%s", opd(i.Dst), i.Op, opd(i.A), stmt, ann)
	case Copy:
		return fmt.Sprintf("%s = %s%s%s", opd(i.Dst), opd(i.A), stmt, ann)
	case Load:
		return fmt.Sprintf("%s = load [%s+%d]%s%s", opd(i.Dst), opd(i.A), i.Off, stmt, ann)
	case Store:
		return fmt.Sprintf("store [%s+%d] = %s%s%s", opd(i.A), i.Off, opd(i.B), stmt, ann)
	case Addr:
		return fmt.Sprintf("%s = addr %s%s%s", opd(i.Dst), i.AddrObj.Name, stmt, ann)
	case Call:
		if i.Dst.Valid() {
			return fmt.Sprintf("%s = call %s(%s)%s%s", opd(i.Dst), i.Callee, opdList(i.Args, f), stmt, ann)
		}
		return fmt.Sprintf("call %s(%s)%s%s", i.Callee, opdList(i.Args, f), stmt, ann)
	case Print:
		var parts []string
		for _, a := range i.PrintFmt {
			if a.IsStr {
				parts = append(parts, fmt.Sprintf("%q", a.Str))
			} else {
				parts = append(parts, opd(a.Val))
			}
		}
		return fmt.Sprintf("print %s%s", strings.Join(parts, ", "), stmt)
	case Ret:
		if i.A.Valid() {
			return fmt.Sprintf("ret %s%s", opd(i.A), stmt)
		}
		return "ret" + stmt
	case Jmp:
		return "jmp" + stmt
	case Br:
		return fmt.Sprintf("br %s%s", opd(i.A), stmt)
	case GetParam:
		return fmt.Sprintf("%s = param %d%s", opd(i.Dst), i.ParamIdx, stmt)
	case MarkDead:
		return fmt.Sprintf("-- marker: dead assignment to %s  ; s%d", i.MarkObj.Name, i.Stmt)
	case MarkAvail:
		return fmt.Sprintf("-- marker: redundant assignment to %s  ; s%d", i.MarkObj.Name, i.Stmt)
	}
	return "?"
}

func opdList(os []Operand, f *Func) string {
	parts := make([]string, len(os))
	for i, o := range os {
		parts[i] = o.StringIn(f)
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------- blocks

// Block is one basic block. The last instruction is the terminator; Succs
// mirror the terminator (Br: Succs[0]=taken, Succs[1]=fallthrough).
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// LoopDepth is filled by loop analysis for spill heuristics.
	LoopDepth int
}

// Term returns the block terminator, or nil if the block is unterminated.
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

// Body returns the instructions excluding the terminator.
func (b *Block) Body() []*Instr {
	if b.Term() != nil {
		return b.Instrs[:len(b.Instrs)-1]
	}
	return b.Instrs
}

// InsertBefore inserts instr at position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// AppendBeforeTerm appends in just before the terminator.
func (b *Block) AppendBeforeTerm(in *Instr) {
	if b.Term() == nil {
		b.Instrs = append(b.Instrs, in)
		return
	}
	b.InsertBefore(len(b.Instrs)-1, in)
}

// RemoveAt deletes the instruction at idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// ReplaceSucc rewires an edge from old to new in Succs.
func (b *Block) ReplaceSucc(old, new *Block) {
	for i, s := range b.Succs {
		if s == old {
			b.Succs[i] = new
		}
	}
}

func (b *Block) String() string { return fmt.Sprintf("B%d", b.ID) }

// ---------------------------------------------------------------- funcs

// Func is one IR function.
type Func struct {
	Name   string
	Decl   *ast.FuncDecl
	Blocks []*Block // Blocks[0] is the entry
	Entry  *Block

	NumTemps int
	nextBID  int
	nextOrig int

	// FrameObjects lists memory-allocated objects in this frame (arrays
	// and addressed scalars), in allocation order.
	FrameObjects []*ast.Object

	// Globals is the program's globals by Object.ID, handed on to the
	// machine function, whose instructions name objects by ID.
	Globals []*ast.Object

	// RemoveUnreachable's marks by block ID and its walk stack, kept for
	// its next call.
	reach []bool
	walk  []*Block
}

// Obj resolves a Var operand to its variable, or returns nil for any
// other operand.
func (f *Func) Obj(o Operand) *ast.Object {
	if o.Kind != Var {
		return nil
	}
	return f.Decl.Locals[o.ID]
}

// NewBlock creates and registers a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBID}
	f.nextBID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewTemp allocates a fresh temporary of class ty.
func (f *Func) NewTemp(ty Ty) Operand {
	t := TempOf(f.NumTemps, ty)
	f.NumTemps++
	return t
}

// NextOrig returns the next emission sequence number.
func (f *Func) NextOrig() int {
	f.nextOrig++
	return f.nextOrig - 1
}

// RecomputePreds rebuilds all Preds lists from Succs.
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

// RemoveUnreachable deletes blocks not reachable from the entry and
// migrates debugger markers from deleted blocks to their (reachable)
// successors, per the "basic block deletion" bookkeeping rule of §3.
// Unreachable code would never have executed, so markers in a block that is
// deleted because it became empty are transferred by the branch passes, not
// here; markers in truly unreachable code are dropped along with the code.
func (f *Func) RemoveUnreachable() {
	// Mark by block ID, in buffers f keeps for the next call. A block
	// outside f.Blocks may be reached, so the marks grow as IDs appear.
	reach := f.reach[:0]
	mark := func(b *Block) bool {
		for b.ID >= len(reach) {
			reach = append(reach, false)
		}
		seen := reach[b.ID]
		reach[b.ID] = true
		return seen
	}
	stack := append(f.walk[:0], f.Entry)
	mark(f.Entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !mark(s) {
				stack = append(stack, s)
			}
		}
	}
	f.reach, f.walk = reach, stack
	kept := 0
	for _, b := range f.Blocks {
		if b.ID < len(reach) && reach[b.ID] {
			kept++
		}
	}
	// Keep f.Blocks when nothing is unreachable; otherwise make a new
	// slice, since a caller may be ranging over the old one.
	if kept < len(f.Blocks) {
		keep := make([]*Block, 0, kept)
		for _, b := range f.Blocks {
			if b.ID < len(reach) && reach[b.ID] {
				keep = append(keep, b)
			}
		}
		f.Blocks = keep
	}
	f.RecomputePreds()
}

// String renders the function IR for dumps and golden tests.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s:\n", f.Name)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk)
		if len(blk.Preds) > 0 {
			fmt.Fprintf(&b, "  ; preds=%v", blk.Preds)
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "    %s\n", in.StringIn(f))
		}
		if t := blk.Term(); t != nil {
			switch t.Kind {
			case Jmp:
				fmt.Fprintf(&b, "    -> %s\n", blk.Succs[0])
			case Br:
				fmt.Fprintf(&b, "    -> then %s else %s\n", blk.Succs[0], blk.Succs[1])
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- program

// Program is the IR for a whole translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*ast.Object
	// GlobalInit holds each global's constant initial value, by
	// Object.ID; a global without one (every array and struct, and a
	// scalar declared without an initializer) is NoOpd and
	// zero-initialized.
	GlobalInit []Operand
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
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
