// Package sem implements name resolution and type checking for MiniC, and
// assigns the bookkeeping numbers the rest of the compiler depends on:
// statement IDs (the source-level breakpoint unit), per-function variable
// IDs (dense indices for data-flow bit vectors and debug info), scope
// extents, and the Addressed flag that decides register promotion.
package sem

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/token"
)

// Program is a checked MiniC translation unit.
type Program struct {
	File    *ast.File
	Globals []*ast.Object // in declaration order; index = Object.ID
	Funcs   []*ast.FuncDecl
}

type checker struct {
	file  *source.File
	errs  *source.ErrorList
	prog  *Program
	funcs map[string]*ast.Object

	// per-function state
	fn     *ast.FuncDecl
	scopes []map[string]*ast.Object
	lines  []int32 // the current function's statement lines, by ID; its length is the next ID
	loop   int     // loop nesting depth, for break/continue
}

// Check resolves and type-checks the file, returning the checked Program.
func Check(f *ast.File, errs *source.ErrorList) (*Program, error) {
	c := &checker{
		file:  f.Source,
		errs:  errs,
		prog:  &Program{File: f},
		funcs: make(map[string]*ast.Object),
	}
	c.checkStructs()
	c.collectGlobals()
	for _, fn := range f.Funcs {
		c.checkFunc(fn)
	}
	c.prog.Funcs = f.Funcs
	if main := f.LookupFunc("main"); main == nil {
		errs.Add(f.Source, source.NoPos, "program has no function 'main'")
	}
	return c.prog, errs.Err()
}

// CheckSource parses and checks in one step (convenience for tests/examples).
func CheckSource(name, text string) (*Program, error) {
	f := source.NewFile(name, text)
	var errs source.ErrorList
	af := parser.Parse(f, &errs)
	if errs.Len() > 0 {
		return nil, errs.Err()
	}
	return Check(af, &errs)
}

func (c *checker) errorf(sp source.Span, format string, args ...any) {
	c.errs.Add(c.file, sp.Start, format, args...)
}

// ---------------------------------------------------------------- structs

// checkStructs validates file-scope struct declarations: every field must
// be a scalar (int or float — one 4-byte slot each, so offsets are simply
// 4*index), names must be unique, and a struct needs at least one field.
func (c *checker) checkStructs() {
	for _, sd := range c.prog.File.Structs {
		if len(sd.Typ.Fields) == 0 {
			c.errorf(sd.Spn, "struct %q has no fields", sd.Name)
		}
		seen := map[string]bool{}
		for _, f := range sd.Typ.Fields {
			if !ast.IsArith(f.Type) {
				c.errorf(sd.Spn, "field %q of struct %q must be int or float", f.Name, sd.Name)
			}
			if seen[f.Name] {
				c.errorf(sd.Spn, "duplicate field %q in struct %q", f.Name, sd.Name)
			}
			seen[f.Name] = true
		}
	}
}

// arraySizeOK reports, as an error, an array whose byte size is over
// ast.MaxDataBytes, computed without overflowing.
func (c *checker) arraySizeOK(d *ast.VarDecl, arr *ast.ArrayType) bool {
	if es := arr.Elem.Size(); es > 0 && arr.Len > ast.MaxDataBytes/es {
		c.errorf(d.Spn, "array %q is larger than %d bytes", d.Name, ast.MaxDataBytes)
		return false
	}
	return true
}

// addMembers materializes one member object per field of a struct-typed
// local or parameter, named "base.field" and appended to fn.Locals so each
// field owns a dense variable ID. SROA later promotes these to scalar
// pseudo-registers; the classifier tracks each independently.
func (c *checker) addMembers(base *ast.Object) {
	st := base.Type.(*ast.StructType)
	for i, f := range st.Fields {
		m := &ast.Object{
			Name: base.Name + "." + f.Name, Kind: base.Kind, Type: f.Type,
			Decl: base.Decl, ID: len(c.fn.Locals),
			ScopeStart: base.ScopeStart, ScopeEnd: base.ScopeEnd,
			Base: base, FieldIdx: i,
		}
		base.Members = append(base.Members, m)
		c.fn.Locals = append(c.fn.Locals, m)
	}
}

// ---------------------------------------------------------------- globals

func (c *checker) collectGlobals() {
	seen := map[string]bool{}
	var total int64 // global data bytes, laid out as lower.NewProgram does
	for i, d := range c.prog.File.Globals {
		if seen[d.Name] {
			c.errorf(d.Spn, "duplicate global %q", d.Name)
		}
		seen[d.Name] = true
		obj := &ast.Object{Name: d.Name, Kind: ast.ObjGlobal, Type: d.Typ, Decl: d, ID: i}
		if arr, isArr := d.Typ.(*ast.ArrayType); isArr {
			obj.Addressed = true
			if ast.IsStruct(arr.Elem) {
				c.errorf(d.Spn, "arrays of structs are not supported")
			}
			if !c.arraySizeOK(d, arr) {
				total = ast.MaxDataBytes + 1 // reported; do not report the total too
			}
		}
		if total <= ast.MaxDataBytes {
			total += max(int64(d.Typ.Size()), 4)
			if total > ast.MaxDataBytes {
				c.errorf(d.Spn, "global %q takes the global data past %d bytes", d.Name, ast.MaxDataBytes)
			}
		}
		if ast.IsStruct(d.Typ) {
			// Globals always live in memory; struct globals are accessed
			// field-by-field through the base address and need no member
			// objects (every field is trivially resident and current).
			obj.Addressed = true
		}
		d.Obj = obj
		c.prog.Globals = append(c.prog.Globals, obj)
		if d.Init != nil {
			c.checkExpr(d.Init)
			switch d.Init.(type) {
			case *ast.IntLit, *ast.FloatLit:
				d.Init = c.convert(d.Init, d.Typ, d.Spn)
			default:
				c.errorf(d.Spn, "global initializer must be a constant literal")
			}
		}
	}
	for _, fn := range c.prog.File.Funcs {
		if seen[fn.Name] {
			c.errorf(fn.Spn, "duplicate declaration %q", fn.Name)
		}
		seen[fn.Name] = true
		obj := &ast.Object{Name: fn.Name, Kind: ast.ObjFunc, Type: fn.Ret, Func: fn}
		fn.Obj = obj
		c.funcs[fn.Name] = obj
	}
}

// ---------------------------------------------------------------- scopes

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*ast.Object{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(obj *ast.Object, sp source.Span) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[obj.Name]; dup {
		c.errorf(sp, "duplicate declaration of %q in this scope", obj.Name)
	}
	top[obj.Name] = obj
}

func (c *checker) lookup(name string) *ast.Object {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if obj, ok := c.scopes[i][name]; ok {
			return obj
		}
	}
	for _, g := range c.prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// ---------------------------------------------------------------- funcs

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	c.fn = fn
	c.lines = c.lines[:0]
	c.loop = 0
	c.scopes = nil
	c.pushScope()
	if ast.IsStruct(fn.Ret) {
		c.errorf(fn.Spn, "function %q cannot return a struct", fn.Name)
	}
	for _, p := range fn.Params {
		obj := &ast.Object{
			Name: p.Name, Kind: ast.ObjParam, Type: p.Typ, Decl: p,
			ID: len(fn.Locals), ScopeStart: 0, ScopeEnd: 1 << 30,
		}
		p.Obj = obj
		fn.Locals = append(fn.Locals, obj)
		c.declare(obj, p.Spn)
	}
	// Struct-param member objects come after all parameter objects so that
	// parameter IDs stay positional (ID == parameter index).
	for _, p := range fn.Params {
		if ast.IsStruct(p.Typ) {
			c.addMembers(p.Obj)
		}
	}
	c.checkBlock(fn.Body)
	fn.NumStmts = len(c.lines)
	fn.StmtLines = slices.Clone(c.lines)
	for _, o := range fn.Locals {
		if o.ScopeEnd > fn.NumStmts {
			o.ScopeEnd = fn.NumStmts
		}
	}
	// Member objects shadow their base's final scope extent.
	for _, o := range fn.Locals {
		if o.Base != nil {
			o.ScopeStart, o.ScopeEnd = o.Base.ScopeStart, o.Base.ScopeEnd
		}
	}
	c.popScope()
}

// assignID gives s the next statement ID and records its line.
func (c *checker) assignID(s ast.Stmt) {
	s.SetID(len(c.lines))
	c.lines = append(c.lines, int32(c.file.Position(s.Span().Start).Line))
}

func (c *checker) checkBlock(b *ast.Block) {
	b.SetID(-1) // blocks themselves are not breakpoints
	c.pushScope()
	var declared []*ast.Object
	for _, s := range b.Stmts {
		if obj := c.checkStmt(s); obj != nil {
			declared = append(declared, obj)
		}
	}
	// Variables declared in this block go out of scope at its end.
	for _, o := range declared {
		o.ScopeEnd = len(c.lines)
	}
	c.popScope()
}

// checkStmt checks one statement; if it declares a variable, the new object
// is returned so the enclosing block can close its scope.
func (c *checker) checkStmt(s ast.Stmt) *ast.Object {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s)
		return nil

	case *ast.DeclStmt:
		c.assignID(s)
		d := s.Decl
		if d.Typ.Size() == 0 {
			c.errorf(d.Spn, "variable %q has void type", d.Name)
		}
		obj := &ast.Object{
			Name: d.Name, Kind: ast.ObjLocal, Type: d.Typ, Decl: d,
			ID: len(c.fn.Locals), ScopeStart: s.ID(), ScopeEnd: 1 << 30,
		}
		if arr, isArr := d.Typ.(*ast.ArrayType); isArr {
			obj.Addressed = true
			if ast.IsStruct(arr.Elem) {
				c.errorf(d.Spn, "arrays of structs are not supported")
			}
			c.arraySizeOK(d, arr)
		}
		d.Obj = obj
		c.fn.Locals = append(c.fn.Locals, obj)
		if ast.IsStruct(d.Typ) {
			c.addMembers(obj)
			if d.Init != nil {
				c.errorf(d.Spn, "struct declarations cannot have initializers; assign fields individually")
				d.Init = nil
			}
		} else if d.Init != nil {
			c.checkExpr(d.Init)
			d.Init = c.convert(d.Init, scalarOf(d.Typ), d.Spn)
		}
		c.declare(obj, d.Spn)
		return obj

	case *ast.AssignStmt:
		c.assignID(s)
		lt := c.checkLValue(s.LHS)
		c.checkExpr(s.RHS)
		if s.Op != token.ASSIGN {
			// Compound assignment: lhs op= rhs requires arithmetic lhs.
			if !ast.IsArith(lt) && !isPointer(lt) {
				c.errorf(s.LHS.Span(), "invalid operand of compound assignment")
			}
		}
		if isPointer(lt) {
			// Pointer assignment: rhs must be pointer of same type or
			// pointer arithmetic result; for op= only +=/-= with int.
			if s.Op == token.ASSIGN {
				if !ast.SameType(lt, exprType(s.RHS)) {
					c.errorf(s.RHS.Span(), "cannot assign %s to %s", exprType(s.RHS), lt)
				}
			} else if s.Op == token.PLUSASSIGN || s.Op == token.MINUSASSIGN {
				s.RHS = c.convert(s.RHS, ast.IntType, s.RHS.Span())
			} else {
				c.errorf(s.Span(), "invalid pointer assignment operator")
			}
		} else {
			s.RHS = c.convert(s.RHS, lt, s.RHS.Span())
		}
		return nil

	case *ast.IncDecStmt:
		c.assignID(s)
		t := c.checkLValue(s.X)
		if !ast.IsArith(t) && !isPointer(t) {
			c.errorf(s.X.Span(), "invalid operand of %s", s.Op)
		}
		return nil

	case *ast.ExprStmt:
		c.assignID(s)
		c.checkExpr(s.X)
		if _, ok := s.X.(*ast.CallExpr); !ok {
			c.errorf(s.Span(), "expression statement must be a call")
		}
		return nil

	case *ast.IfStmt:
		c.assignID(s)
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
		return nil

	case *ast.WhileStmt:
		c.assignID(s)
		c.checkCond(s.Cond)
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
		return nil

	case *ast.DoWhileStmt:
		c.assignID(s)
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
		c.checkCond(s.Cond)
		return nil

	case *ast.ForStmt:
		c.assignID(s)
		c.pushScope()
		var declared *ast.Object
		if s.Init != nil {
			declared = c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		if declared != nil {
			declared.ScopeEnd = len(c.lines)
		}
		c.popScope()
		return nil

	case *ast.ReturnStmt:
		c.assignID(s)
		if s.X != nil {
			c.checkExpr(s.X)
			if c.fn.Ret.Size() == 0 {
				c.errorf(s.Span(), "void function %q returns a value", c.fn.Name)
			} else {
				s.X = c.convert(s.X, c.fn.Ret, s.Span())
			}
		} else if c.fn.Ret.Size() != 0 {
			c.errorf(s.Span(), "non-void function %q returns no value", c.fn.Name)
		}
		return nil

	case *ast.BreakStmt:
		c.assignID(s)
		if c.loop == 0 {
			c.errorf(s.Span(), "break outside loop")
		}
		return nil

	case *ast.ContinueStmt:
		c.assignID(s)
		if c.loop == 0 {
			c.errorf(s.Span(), "continue outside loop")
		}
		return nil

	case *ast.PrintStmt:
		c.assignID(s)
		for i := range s.Args {
			if !s.Args[i].IsStr {
				c.checkExpr(s.Args[i].X)
				if !ast.IsArith(exprType(s.Args[i].X)) && !isPointer(exprType(s.Args[i].X)) {
					c.errorf(s.Args[i].X.Span(), "cannot print value of type %s", exprType(s.Args[i].X))
				}
			}
		}
		return nil
	}
	panic(fmt.Sprintf("sem: unknown statement %T", s))
}

func (c *checker) checkCond(e ast.Expr) {
	c.checkExpr(e)
	t := exprType(e)
	if !ast.IsArith(t) && !isPointer(t) {
		c.errorf(e.Span(), "condition must be scalar, got %s", t)
	}
}

// ---------------------------------------------------------------- exprs

func exprType(e ast.Expr) ast.Type {
	if e == nil || e.Type() == nil {
		return ast.IntType
	}
	return e.Type()
}

func isPointer(t ast.Type) bool { _, ok := t.(*ast.PointerType); return ok }

func scalarOf(t ast.Type) ast.Type {
	if a, ok := t.(*ast.ArrayType); ok {
		return a.Elem
	}
	return t
}

// convert inserts an int<->float cast if needed so e has type want.
func (c *checker) convert(e ast.Expr, want ast.Type, sp source.Span) ast.Expr {
	have := exprType(e)
	if ast.SameType(have, want) {
		return e
	}
	if ast.IsArith(have) && ast.IsArith(want) {
		return ast.NewCast(want, e, e.Span())
	}
	if isPointer(want) && isPointer(have) {
		return e // already same-shape pointer; mismatch reported by caller
	}
	c.errorf(sp, "cannot convert %s to %s", have, want)
	return e
}

// checkLValue checks an assignable expression and returns its type.
func (c *checker) checkLValue(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.Ident:
		c.checkExpr(e)
		if e.Obj != nil && e.Obj.Kind == ast.ObjFunc {
			c.errorf(e.Span(), "cannot assign to function %q", e.Name)
		}
		if _, isArr := exprType(e).(*ast.ArrayType); isArr {
			c.errorf(e.Span(), "cannot assign to array %q", e.Name)
		}
		return exprType(e)
	case *ast.IndexExpr:
		c.checkExpr(e)
		return exprType(e)
	case *ast.FieldExpr:
		c.checkExpr(e)
		return exprType(e)
	case *ast.UnaryExpr:
		if e.Op == token.STAR {
			c.checkExpr(e)
			return exprType(e)
		}
	}
	c.errorf(e.Span(), "invalid assignment target")
	c.checkExpr(e)
	return exprType(e)
}

func (c *checker) checkExpr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit, *ast.FloatLit:
		// already typed by constructor

	case *ast.Ident:
		obj := c.lookup(e.Name)
		if obj == nil {
			if fo, ok := c.funcs[e.Name]; ok {
				obj = fo
			}
		}
		if obj == nil {
			c.errorf(e.Span(), "undeclared identifier %q", e.Name)
			e.SetType(ast.IntType)
			return
		}
		if obj.Kind == ast.ObjFunc {
			// Call expressions resolve their callee directly, so a function
			// name reaching here is being used as a value.
			c.errorf(e.Span(), "cannot convert function %q to a value", e.Name)
		}
		e.Obj = obj
		e.SetType(obj.Type)

	case *ast.BinaryExpr:
		c.checkExpr(e.X)
		c.checkExpr(e.Y)
		xt, yt := decay(exprType(e.X)), decay(exprType(e.Y))
		switch e.Op {
		case token.PLUS, token.MINUS:
			// Pointer arithmetic: ptr+int, int+ptr, ptr-int, ptr-ptr.
			if isPointer(xt) && ast.IsInt(yt) {
				e.SetType(xt)
				return
			}
			if e.Op == token.PLUS && ast.IsInt(xt) && isPointer(yt) {
				e.SetType(yt)
				return
			}
			if e.Op == token.MINUS && isPointer(xt) && isPointer(yt) {
				e.SetType(ast.IntType)
				return
			}
			fallthrough
		case token.STAR, token.SLASH:
			if !ast.IsArith(xt) || !ast.IsArith(yt) {
				c.errorf(e.Span(), "invalid operands of %s (%s, %s)", e.Op, xt, yt)
				e.SetType(ast.IntType)
				return
			}
			if ast.IsFloat(xt) || ast.IsFloat(yt) {
				e.X = c.convert(e.X, ast.FloatType, e.Span())
				e.Y = c.convert(e.Y, ast.FloatType, e.Span())
				e.SetType(ast.FloatType)
			} else {
				e.SetType(ast.IntType)
			}
		case token.PERCENT, token.SHL, token.SHR, token.OR, token.XOR:
			if !ast.IsInt(xt) || !ast.IsInt(yt) {
				c.errorf(e.Span(), "operands of %s must be int", e.Op)
			}
			e.SetType(ast.IntType)
		case token.EQ, token.NEQ, token.LT, token.GT, token.LEQ, token.GEQ:
			if isPointer(xt) && isPointer(yt) {
				e.SetType(ast.IntType)
				return
			}
			if !ast.IsArith(xt) || !ast.IsArith(yt) {
				c.errorf(e.Span(), "invalid comparison operands (%s, %s)", xt, yt)
			} else if ast.IsFloat(xt) || ast.IsFloat(yt) {
				e.X = c.convert(e.X, ast.FloatType, e.Span())
				e.Y = c.convert(e.Y, ast.FloatType, e.Span())
			}
			e.SetType(ast.IntType)
		case token.ANDAND, token.OROR:
			if !scalarOK(xt) || !scalarOK(yt) {
				c.errorf(e.Span(), "operands of %s must be scalar", e.Op)
			}
			e.SetType(ast.IntType)
		default:
			c.errorf(e.Span(), "unknown binary operator %s", e.Op)
			e.SetType(ast.IntType)
		}

	case *ast.UnaryExpr:
		c.checkExpr(e.X)
		xt := exprType(e.X)
		switch e.Op {
		case token.MINUS:
			if !ast.IsArith(xt) {
				c.errorf(e.Span(), "invalid operand of unary -")
				e.SetType(ast.IntType)
				return
			}
			e.SetType(xt)
		case token.NOT:
			if !scalarOK(decay(xt)) {
				c.errorf(e.Span(), "invalid operand of !")
			}
			e.SetType(ast.IntType)
		case token.STAR:
			pt, ok := decay(xt).(*ast.PointerType)
			if !ok {
				c.errorf(e.Span(), "cannot dereference %s", xt)
				e.SetType(ast.IntType)
				return
			}
			e.SetType(pt.Elem)
		case token.AMP:
			switch x := e.X.(type) {
			case *ast.Ident:
				if x.Obj != nil && x.Obj.IsVar() {
					if ast.IsStruct(x.Obj.Type) {
						c.errorf(e.Span(), "cannot take the address of struct %q; take a field's address instead", x.Name)
						e.SetType(&ast.PointerType{Elem: ast.IntType})
						return
					}
					x.Obj.Addressed = true
					e.SetType(&ast.PointerType{Elem: scalarOf(x.Obj.Type)})
					if _, isArr := x.Obj.Type.(*ast.ArrayType); isArr {
						// &arr is the array's address (same as arr).
						e.SetType(&ast.PointerType{Elem: x.Obj.Type.(*ast.ArrayType).Elem})
					}
					return
				}
				c.errorf(e.Span(), "cannot take address of %q", x.Name)
				e.SetType(&ast.PointerType{Elem: ast.IntType})
			case *ast.IndexExpr:
				e.SetType(&ast.PointerType{Elem: exprType(x)})
			case *ast.FieldExpr:
				// &s.f pins the whole aggregate in memory: the base can no
				// longer be SROA'd, and the member stays memory-resident.
				if x.Member != nil {
					x.Member.Addressed = true
					x.Member.Base.Addressed = true
				} else if id, ok := x.X.(*ast.Ident); ok && id.Obj != nil {
					id.Obj.Addressed = true
				}
				e.SetType(&ast.PointerType{Elem: exprType(x)})
			default:
				c.errorf(e.Span(), "cannot take address of this expression")
				e.SetType(&ast.PointerType{Elem: ast.IntType})
			}
		default:
			c.errorf(e.Span(), "unknown unary operator %s", e.Op)
			e.SetType(ast.IntType)
		}

	case *ast.IndexExpr:
		c.checkExpr(e.X)
		c.checkExpr(e.Index)
		e.Index = c.convert(e.Index, ast.IntType, e.Index.Span())
		switch bt := decay(exprType(e.X)).(type) {
		case *ast.PointerType:
			e.SetType(bt.Elem)
		default:
			c.errorf(e.Span(), "cannot index %s", exprType(e.X))
			e.SetType(ast.IntType)
		}

	case *ast.FieldExpr:
		c.checkExpr(e.X)
		st, ok := exprType(e.X).(*ast.StructType)
		if !ok {
			c.errorf(e.Span(), "%s has no fields", exprType(e.X))
			e.SetType(ast.IntType)
			return
		}
		idx := st.FieldIndex(e.Name)
		if idx < 0 {
			c.errorf(e.Span(), "struct %q has no field %q", st.Name, e.Name)
			e.SetType(ast.IntType)
			return
		}
		e.Idx = idx
		e.SetType(st.Fields[idx].Type)
		if id, ok := e.X.(*ast.Ident); ok && id.Obj != nil && idx < len(id.Obj.Members) {
			e.Member = id.Obj.Members[idx]
		}

	case *ast.CallExpr:
		fo, ok := c.funcs[e.Fun.Name]
		if !ok {
			c.errorf(e.Span(), "call of undeclared function %q", e.Fun.Name)
			e.SetType(ast.IntType)
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			return
		}
		e.Fun.Obj = fo
		fn := fo.Func
		if len(e.Args) != len(fn.Params) {
			c.errorf(e.Span(), "call of %q with %d args, want %d",
				fn.Name, len(e.Args), len(fn.Params))
		}
		for i, a := range e.Args {
			c.checkExpr(a)
			if i < len(fn.Params) {
				want := fn.Params[i].Typ
				have := decay(exprType(a))
				if isPointer(want) {
					if !ast.SameType(want, have) {
						c.errorf(a.Span(), "argument %d of %q: cannot pass %s as %s",
							i+1, fn.Name, exprType(a), want)
					}
				} else {
					e.Args[i] = c.convert(a, want, a.Span())
				}
			}
		}
		e.SetType(fn.Ret)

	case *ast.CastExpr:
		c.checkExpr(e.X)
		if !ast.IsArith(decay(exprType(e.X))) || !ast.IsArith(e.To) {
			c.errorf(e.Span(), "invalid cast from %s to %s", exprType(e.X), e.To)
		}
		e.SetType(e.To)

	default:
		panic(fmt.Sprintf("sem: unknown expression %T", e))
	}
}

func scalarOK(t ast.Type) bool { return ast.IsArith(t) || isPointer(t) }

// decay converts array types to pointer-to-element, as in C expressions.
func decay(t ast.Type) ast.Type {
	if a, ok := t.(*ast.ArrayType); ok {
		return &ast.PointerType{Elem: a.Elem}
	}
	return t
}
