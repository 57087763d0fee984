// Package ast defines the abstract syntax tree for MiniC and its types.
//
// Every statement node carries a statement ID (assigned by the semantic
// checker) which is the unit of source-level breakpoints: the debugger model
// of the paper maps each source statement to a breakpoint location in the
// optimized object code.
package ast

import (
	"fmt"
	"repro/internal/source"
	"repro/internal/token"
)

// ---------------------------------------------------------------- types

// Type is the interface of all MiniC types.
type Type interface {
	String() string
	// Size returns the size of the type in bytes on the virtual target.
	Size() int
}

// BasicKind enumerates the scalar base types.
type BasicKind int

// Basic type kinds.
const (
	Int BasicKind = iota
	Float
	Void
)

// BasicType is int, float or void.
type BasicType struct{ Kind BasicKind }

// Predefined singleton types.
var (
	IntType   = &BasicType{Int}
	FloatType = &BasicType{Float}
	VoidType  = &BasicType{Void}
)

func (t *BasicType) String() string {
	switch t.Kind {
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return "void"
	}
}

// Size returns the byte size of the basic type (the target word is 4 bytes).
func (t *BasicType) Size() int {
	if t.Kind == Void {
		return 0
	}
	return 4
}

// PointerType is a pointer to a scalar element type.
type PointerType struct{ Elem Type }

func (t *PointerType) String() string { return t.Elem.String() + "*" }

// Size returns the pointer size (one 4-byte word).
func (t *PointerType) Size() int { return 4 }

// MaxDataBytes bounds the byte size of any one array and of a program's
// globals together. The checker rejects a program past it, and the
// simulator refuses a machine program whose global data is, so neither a
// source file nor a spill file read back from disk can make one session
// ask for an unbounded amount of memory. It is 38 times the largest global
// data of the corpus workloads (compress's 110,620 bytes).
const MaxDataBytes = 4 << 20

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	Len  int
}

func (t *ArrayType) String() string { return fmt.Sprintf("%s[%d]", t.Elem, t.Len) }

// Size returns the total byte size of the array.
func (t *ArrayType) Size() int { return t.Elem.Size() * t.Len }

// StructField is one named member of a struct type. All fields are scalar
// (int or float), each occupying one 4-byte slot at offset 4*index.
type StructField struct {
	Name string
	Type Type // int or float
}

// StructType is a named aggregate of scalar fields. Struct types are
// declared at file scope and compared nominally (by declaration identity):
// two structs with the same field layout are still distinct types.
type StructType struct {
	Name   string
	Fields []StructField
}

func (t *StructType) String() string { return "struct " + t.Name }

// Size returns the total byte size: one 4-byte slot per field.
func (t *StructType) Size() int { return 4 * len(t.Fields) }

// FieldIndex returns the index of the named field, or -1.
func (t *StructType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldOffset returns the byte offset of field i.
func (t *StructType) FieldOffset(i int) int { return 4 * i }

// IsStruct reports whether t is a struct type.
func IsStruct(t Type) bool {
	_, ok := t.(*StructType)
	return ok
}

// SameType reports structural type equality (structs compare nominally).
func SameType(a, b Type) bool {
	switch a := a.(type) {
	case *BasicType:
		b, ok := b.(*BasicType)
		return ok && a.Kind == b.Kind
	case *PointerType:
		b, ok := b.(*PointerType)
		return ok && SameType(a.Elem, b.Elem)
	case *ArrayType:
		b, ok := b.(*ArrayType)
		return ok && a.Len == b.Len && SameType(a.Elem, b.Elem)
	case *StructType:
		b, ok := b.(*StructType)
		return ok && a == b
	}
	return false
}

// IsArith reports whether t is int or float.
func IsArith(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && (b.Kind == Int || b.Kind == Float)
}

// IsInt reports whether t is int.
func IsInt(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.Kind == Int
}

// IsFloat reports whether t is float.
func IsFloat(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.Kind == Float
}

// ---------------------------------------------------------------- objects

// ObjKind distinguishes the kinds of declared objects.
type ObjKind int

// Object kinds.
const (
	ObjGlobal ObjKind = iota
	ObjLocal
	ObjParam
	ObjFunc
)

// Object is a declared entity (variable or function) after name resolution.
// Variables are the entities the debugger classifies; each carries the
// bookkeeping bits the classifier needs (addressed, scope extent).
type Object struct {
	Name string
	Kind ObjKind
	Type Type
	Decl *VarDecl  // for variables
	Func *FuncDecl // for functions

	// ID is the per-function variable number (locals/params) or global
	// number, assigned by the semantic checker; used as the dense index in
	// data-flow bit vectors and in debug info.
	ID int

	// Addressed is set when the program takes &v or the variable is an
	// array; addressed variables live in memory and are never promoted to
	// registers (hence always resident — matching cmcc's model where only
	// register-promoted scalars become nonresident).
	Addressed bool

	// ScopeStart/ScopeEnd delimit (by statement ID) where the variable is
	// in scope inside its function; used for "variables per breakpoint".
	ScopeStart, ScopeEnd int

	// Members lists a struct-typed variable's materialized per-field
	// objects, in field order; nil for non-aggregates.
	Members []*Object

	// Base and FieldIdx link a struct *member* object back to its aggregate.
	// The checker materializes one member object per field of every
	// struct-typed variable (named "base.field", sharing the base's scope)
	// so that SROA can promote individual fields to scalar pseudo-registers
	// while the classifier keeps a dense per-field entry. Base is nil for
	// ordinary variables and for the aggregate object itself.
	Base     *Object
	FieldIdx int
}

func (o *Object) String() string { return o.Name }

// IsVar reports whether the object is a variable (global, local or param).
func (o *Object) IsVar() bool { return o.Kind != ObjFunc }

// ---------------------------------------------------------------- nodes

// Node is the interface of all AST nodes.
type Node interface {
	Span() source.Span
	SetSpan(source.Span)
}

// Expr is the interface of all expression nodes.
type Expr interface {
	Node
	Type() Type
	SetType(Type)
	exprNode()
}

// Stmt is the interface of all statement nodes.
type Stmt interface {
	Node
	// ID returns the statement's breakpoint ID (set by the checker).
	ID() int
	SetID(int)
	stmtNode()
}

type exprBase struct {
	span source.Span
	typ  Type
}

func (e *exprBase) Span() source.Span { return e.span }

// SetSpan records the node's source extent.
func (e *exprBase) SetSpan(sp source.Span) { e.span = sp }

// Type returns the checked type of the expression.
func (e *exprBase) Type() Type { return e.typ }

// SetType records the checked type of the expression.
func (e *exprBase) SetType(t Type) { e.typ = t }
func (e *exprBase) exprNode()      {}

type stmtBase struct {
	span source.Span
	id   int
}

func (s *stmtBase) Span() source.Span { return s.span }

// SetSpan records the node's source extent.
func (s *stmtBase) SetSpan(sp source.Span) { s.span = sp }

// ID returns the statement's breakpoint ID.
func (s *stmtBase) ID() int { return s.id }

// SetID records the statement's breakpoint ID.
func (s *stmtBase) SetID(id int) { s.id = id }
func (s *stmtBase) stmtNode()    {}

// ---------------------------------------------------------------- exprs

// Ident is a use of a declared name.
type Ident struct {
	exprBase
	Name string
	Obj  *Object // resolved by the checker
}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Value float64
}

// BinaryExpr is a binary operation x op y (arithmetic, comparison, logical).
type BinaryExpr struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// UnaryExpr is -x, !x, *p (deref) or &x (address-of).
type UnaryExpr struct {
	exprBase
	Op token.Kind
	X  Expr
}

// IndexExpr is a[i].
type IndexExpr struct {
	exprBase
	X     Expr
	Index Expr
}

// FieldExpr is s.f — selection of a struct field. After checking, Idx is
// the field's index in the struct's layout; if X is an identifier naming a
// struct variable, Member is the checker-materialized member object for
// that (variable, field) pair.
type FieldExpr struct {
	exprBase
	X      Expr
	Name   string
	Idx    int
	Member *Object // non-nil when X is a direct struct variable reference
}

// CallExpr is f(args...).
type CallExpr struct {
	exprBase
	Fun  *Ident
	Args []Expr
}

// CastExpr converts between int and float (inserted implicitly by the
// checker, or written as float(x)/int(x)).
type CastExpr struct {
	exprBase
	To Type
	X  Expr
}

// NewExpr helpers used by the parser and checker.

// NewIdent makes an identifier node over the given span.
func NewIdent(name string, sp source.Span) *Ident {
	return &Ident{exprBase: exprBase{span: sp}, Name: name}
}

// NewIntLit makes an integer literal node.
func NewIntLit(v int64, sp source.Span) *IntLit {
	e := &IntLit{Value: v}
	e.span = sp
	e.typ = IntType
	return e
}

// NewFloatLit makes a float literal node.
func NewFloatLit(v float64, sp source.Span) *FloatLit {
	e := &FloatLit{Value: v}
	e.span = sp
	e.typ = FloatType
	return e
}

// NewBinary makes a binary expression node.
func NewBinary(op token.Kind, x, y Expr, sp source.Span) *BinaryExpr {
	e := &BinaryExpr{Op: op, X: x, Y: y}
	e.span = sp
	return e
}

// NewUnary makes a unary expression node.
func NewUnary(op token.Kind, x Expr, sp source.Span) *UnaryExpr {
	e := &UnaryExpr{Op: op, X: x}
	e.span = sp
	return e
}

// NewCast makes an int<->float conversion node.
func NewCast(to Type, x Expr, sp source.Span) *CastExpr {
	e := &CastExpr{To: to, X: x}
	e.span = sp
	e.typ = to
	return e
}

// ---------------------------------------------------------------- stmts

// DeclStmt declares a local variable, optionally with an initializer.
type DeclStmt struct {
	stmtBase
	Decl *VarDecl
}

// AssignStmt is lhs = rhs (or compound op= assignments).
type AssignStmt struct {
	stmtBase
	Op  token.Kind // ASSIGN, PLUSASSIGN, ...
	LHS Expr
	RHS Expr
}

// IncDecStmt is x++ or x--.
type IncDecStmt struct {
	stmtBase
	Op token.Kind // INC or DEC
	X  Expr
}

// ExprStmt evaluates an expression for its side effects (a call).
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if (cond) then [else].
type IfStmt struct {
	stmtBase
	Cond Expr
	Then *Block
	Else Stmt // *Block or *IfStmt or nil
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body *Block
}

// DoWhileStmt is do body while (cond);.
type DoWhileStmt struct {
	stmtBase
	Body *Block
	Cond Expr
}

// ForStmt is for (init; cond; post) body; any clause may be missing.
type ForStmt struct {
	stmtBase
	Init Stmt // nil, DeclStmt or AssignStmt
	Cond Expr // nil means true
	Post Stmt // nil, AssignStmt or IncDecStmt
	Body *Block
}

// ReturnStmt is return [x];.
type ReturnStmt struct {
	stmtBase
	X Expr // nil for void return
}

// BreakStmt is break;.
type BreakStmt struct{ stmtBase }

// ContinueStmt is continue;.
type ContinueStmt struct{ stmtBase }

// PrintStmt is print(arg, ...); arguments are expressions or string
// literals. It is the workloads' only I/O and lowers to VM print ops.
type PrintStmt struct {
	stmtBase
	Args []PrintArg
}

// PrintArg is one print argument: either a string literal or an expression.
type PrintArg struct {
	Str   string // used if IsStr
	IsStr bool
	X     Expr
}

// Block is { stmts... }.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// NewBlock makes a block node.
func NewBlock(stmts []Stmt, sp source.Span) *Block {
	b := &Block{Stmts: stmts}
	b.span = sp
	return b
}

// ---------------------------------------------------------------- decls

// VarDecl declares a variable (global, local or parameter).
type VarDecl struct {
	Name  string
	Typ   Type
	Init  Expr // optional initializer (globals: constant only)
	Spn   source.Span
	Obj   *Object // filled by the checker
	Param bool
}

// FuncDecl declares a function with its body.
type FuncDecl struct {
	Name   string
	Params []*VarDecl
	Ret    Type
	Body   *Block
	Spn    source.Span
	Obj    *Object

	// NumStmts is the number of statements (breakpoint IDs) in the body,
	// assigned by the checker; statement IDs are 0..NumStmts-1.
	NumStmts int
	// StmtLines is each statement's source line, by statement ID,
	// recorded by the checker as it assigns the IDs.
	StmtLines []int32
	// Locals lists all local variables and parameters in declaration
	// order; index = Object.ID.
	Locals []*Object
}

// StructDecl declares a file-scope struct type.
type StructDecl struct {
	Name string
	Typ  *StructType // filled by the parser; fields checked by sem
	Spn  source.Span
}

// File is a parsed MiniC translation unit.
type File struct {
	Source  *source.File
	Structs []*StructDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// LookupFunc finds a function by name, or nil.
func (f *File) LookupFunc(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}
