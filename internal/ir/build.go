package ir

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/token"
)

// Build lowers a checked program to IR. Assignments to promoted source
// variables are emitted as single quads (e.g. "x = add y, z") so that the
// optimizer transforms whole source-level assignments, which is what the
// paper's bookkeeping tracks.
func Build(p *sem.Program) *Program {
	prog := BuildGlobals(p)
	for _, fd := range p.Funcs {
		f := buildFunc(fd)
		f.Globals = p.Globals
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog
}

// BuildGlobals returns p's program shell: its globals and their constant
// initializers, with no functions. Build starts from it, and a spill read
// rebuilds a decoded program's global data from it.
func BuildGlobals(p *sem.Program) *Program {
	prog := &Program{Globals: p.Globals, GlobalInit: make([]Operand, len(p.Globals))}
	for _, g := range p.File.Globals {
		switch init := g.Init.(type) {
		case *ast.IntLit:
			prog.GlobalInit[g.Obj.ID] = CI(init.Value)
		case *ast.FloatLit:
			prog.GlobalInit[g.Obj.ID] = CF(init.Value)
		case *ast.CastExpr:
			switch x := init.X.(type) {
			case *ast.IntLit:
				prog.GlobalInit[g.Obj.ID] = CF(float64(x.Value))
			case *ast.FloatLit:
				prog.GlobalInit[g.Obj.ID] = CI(int64(x.Value))
			}
		}
	}
	return prog
}

type builder struct {
	fn   *Func
	cur  *Block
	stmt int // current source statement ID

	breaks    []*Block
	continues []*Block
}

func buildFunc(fd *ast.FuncDecl) *Func {
	f := &Func{Name: fd.Name, Decl: fd}
	b := &builder{fn: f, stmt: -1}
	f.Entry = f.NewBlock()
	b.cur = f.Entry

	// Collect frame objects (arrays, addressed scalars, and aggregates).
	// Struct bases always start in memory — SROA may later promote their
	// fields and drop the base from the frame. Member objects are never
	// frame objects themselves.
	for _, o := range fd.Locals {
		if o.Base != nil {
			continue
		}
		if o.Addressed || ast.IsStruct(o.Type) {
			f.FrameObjects = append(f.FrameObjects, o)
		}
	}

	// Materialize incoming parameters. Struct parameters are flattened in
	// the call ABI: one argument slot per field, stored into the aggregate's
	// frame slots on entry. ParamIdx counts flattened slots.
	flat := 0
	for _, p := range fd.Params {
		if st, ok := p.Typ.(*ast.StructType); ok {
			a := f.NewTemp(I)
			b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: p.Obj})
			for i, fld := range st.Fields {
				t := f.NewTemp(TyOf(fld.Type))
				b.emit(&Instr{Kind: GetParam, Dst: t, ParamIdx: flat + i})
				b.emit(&Instr{Kind: Store, A: a, B: t, Off: int64(st.FieldOffset(i))})
			}
			flat += len(st.Fields)
			continue
		}
		if p.Obj.Addressed {
			t := f.NewTemp(TyOf(p.Obj.Type))
			b.emit(&Instr{Kind: GetParam, Dst: t, ParamIdx: flat})
			a := f.NewTemp(I)
			b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: p.Obj})
			b.emit(&Instr{Kind: Store, A: a, B: t})
		} else {
			b.emit(&Instr{Kind: GetParam, Dst: VarOf(p.Obj), ParamIdx: flat})
		}
		flat++
	}

	b.block(fd.Body)

	// Implicit return at the end of the function.
	if b.cur != nil {
		b.emit(&Instr{Kind: Ret})
	}
	f.RecomputePreds()
	f.RemoveUnreachable()
	return f
}

// emit appends in to the current block, stamping statement and order info.
func (b *builder) emit(in *Instr) *Instr {
	if b.cur == nil { // unreachable code after break/return: drop
		return in
	}
	in.Stmt = b.stmt
	in.OrigIdx = b.fn.NextOrig()
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

// setTerm ends the current block with a terminator and successor links.
func (b *builder) setTerm(in *Instr, succs ...*Block) {
	if b.cur == nil {
		return
	}
	b.emit(in)
	b.cur.Succs = append([]*Block(nil), succs...)
	b.cur = nil
}

// startBlock begins emitting into blk.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// jumpTo terminates the current block with a jump to blk (if still open).
func (b *builder) jumpTo(blk *Block) {
	if b.cur != nil {
		b.setTerm(&Instr{Kind: Jmp}, blk)
	}
}

// ---------------------------------------------------------------- stmts

func (b *builder) block(blk *ast.Block) {
	for _, s := range blk.Stmts {
		b.stmtGen(s)
	}
}

func (b *builder) stmtGen(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable statements (after return/break) generate no code.
		return
	}
	prev := b.stmt
	if s.ID() >= 0 {
		b.stmt = s.ID()
	}
	defer func() { b.stmt = prev }()

	switch s := s.(type) {
	case *ast.Block:
		b.block(s)

	case *ast.DeclStmt:
		if s.Decl.Init != nil {
			b.assignTo(s.Decl.Obj, identExprOf(s.Decl), s.Decl.Init)
		}

	case *ast.AssignStmt:
		b.assign(s)

	case *ast.IncDecStmt:
		op := token.PLUSASSIGN
		if s.Op == token.DEC {
			op = token.MINUSASSIGN
		}
		b.assign(&ast.AssignStmt{Op: op, LHS: s.X, RHS: oneFor(s.X)})

	case *ast.ExprStmt:
		b.value(s.X, Operand{})

	case *ast.IfStmt:
		thenB := b.fn.NewBlock()
		var elseB *Block
		joinB := b.fn.NewBlock()
		if s.Else != nil {
			elseB = b.fn.NewBlock()
			b.cond(s.Cond, thenB, elseB)
		} else {
			b.cond(s.Cond, thenB, joinB)
		}
		b.startBlock(thenB)
		b.block(s.Then)
		b.jumpTo(joinB)
		if s.Else != nil {
			b.startBlock(elseB)
			b.stmtGen(s.Else)
			b.jumpTo(joinB)
		}
		b.startBlock(joinB)

	case *ast.WhileStmt:
		head := b.fn.NewBlock()
		body := b.fn.NewBlock()
		exit := b.fn.NewBlock()
		b.jumpTo(head)
		b.startBlock(head)
		b.cond(s.Cond, body, exit)
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, head)
		b.startBlock(body)
		b.block(s.Body)
		b.jumpTo(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.startBlock(exit)

	case *ast.DoWhileStmt:
		body := b.fn.NewBlock()
		head := b.fn.NewBlock() // condition test
		exit := b.fn.NewBlock()
		b.jumpTo(body)
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, head)
		b.startBlock(body)
		b.block(s.Body)
		b.jumpTo(head)
		b.startBlock(head)
		b.cond(s.Cond, body, exit)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.startBlock(exit)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmtGen(s.Init)
		}
		head := b.fn.NewBlock()
		body := b.fn.NewBlock()
		post := b.fn.NewBlock()
		exit := b.fn.NewBlock()
		b.jumpTo(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.cond(s.Cond, body, exit)
		} else {
			b.jumpTo(body)
		}
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, post)
		b.startBlock(body)
		b.block(s.Body)
		b.jumpTo(post)
		b.startBlock(post)
		if s.Post != nil {
			b.stmtGen(s.Post)
		}
		b.jumpTo(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.startBlock(exit)

	case *ast.ReturnStmt:
		var v Operand
		if s.X != nil {
			v = b.value(s.X, Operand{})
		}
		b.setTerm(&Instr{Kind: Ret, A: v})

	case *ast.BreakStmt:
		b.jumpTo(b.breaks[len(b.breaks)-1])

	case *ast.ContinueStmt:
		b.jumpTo(b.continues[len(b.continues)-1])

	case *ast.PrintStmt:
		in := &Instr{Kind: Print}
		for _, a := range s.Args {
			if a.IsStr {
				in.PrintFmt = append(in.PrintFmt, PrintArg{Str: a.Str, IsStr: true})
			} else {
				v := b.value(a.X, Operand{})
				in.PrintFmt = append(in.PrintFmt, PrintArg{Val: v})
			}
		}
		b.emit(in)

	default:
		panic(fmt.Sprintf("ir: unknown statement %T", s))
	}
}

func oneFor(x ast.Expr) ast.Expr {
	if ast.IsFloat(x.Type()) {
		return ast.NewFloatLit(1, x.Span())
	}
	return ast.NewIntLit(1, x.Span())
}

func identExprOf(d *ast.VarDecl) *ast.Ident {
	id := ast.NewIdent(d.Name, d.Spn)
	id.Obj = d.Obj
	id.SetType(d.Obj.Type)
	return id
}

// assign generates code for an assignment statement.
func (b *builder) assign(s *ast.AssignStmt) {
	rhs := s.RHS
	if s.Op != token.ASSIGN {
		// Desugar x op= e into x = x op e; the LHS read shares the node.
		var binOp token.Kind
		switch s.Op {
		case token.PLUSASSIGN:
			binOp = token.PLUS
		case token.MINUSASSIGN:
			binOp = token.MINUS
		case token.STARASSIGN:
			binOp = token.STAR
		case token.SLASHASSIGN:
			binOp = token.SLASH
		}
		bin := ast.NewBinary(binOp, s.LHS, s.RHS, s.LHS.Span().Union(s.RHS.Span()))
		bin.SetType(s.LHS.Type())
		rhs = bin
	}

	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		b.assignTo(lhs.Obj, lhs, rhs)
	case *ast.FieldExpr:
		base := structBaseObj(lhs)
		v := b.value(rhs, Operand{})
		a := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: base})
		b.emit(&Instr{Kind: Store, A: a, B: v, Off: fieldOff(lhs)})
	case *ast.IndexExpr:
		addr, off := b.address(lhs)
		v := b.value(rhs, Operand{})
		b.emit(&Instr{Kind: Store, A: addr, B: v, Off: off})
	case *ast.UnaryExpr: // *p = e
		ptr := b.value(lhs.X, Operand{})
		v := b.value(rhs, Operand{})
		b.emit(&Instr{Kind: Store, A: ptr, B: v})
	default:
		panic(fmt.Sprintf("ir: bad assignment target %T", s.LHS))
	}
}

// assignTo stores the value of rhs into variable obj.
func (b *builder) assignTo(obj *ast.Object, lhs *ast.Ident, rhs ast.Expr) {
	if obj == nil {
		return
	}
	if st, ok := obj.Type.(*ast.StructType); ok {
		// Whole-struct assignment s1 = s2: copy field by field through the
		// aggregates' base addresses. sem guarantees rhs is a same-typed
		// struct variable.
		src, okSrc := rhs.(*ast.Ident)
		if !okSrc || src.Obj == nil {
			return
		}
		sa := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: Addr, Dst: sa, AddrObj: src.Obj})
		da := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: Addr, Dst: da, AddrObj: obj})
		for i, fld := range st.Fields {
			off := int64(st.FieldOffset(i))
			t := b.fn.NewTemp(TyOf(fld.Type))
			b.emit(&Instr{Kind: Load, Dst: t, A: sa, Off: off})
			b.emit(&Instr{Kind: Store, A: da, B: t, Off: off})
		}
		return
	}
	if obj.Kind == ast.ObjGlobal || obj.Addressed {
		v := b.value(rhs, Operand{})
		a := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: obj})
		b.emit(&Instr{Kind: Store, A: a, B: v})
		return
	}
	// Promoted variable: emit the defining op directly into the variable.
	b.value(rhs, VarOf(obj))
}

// ---------------------------------------------------------------- exprs

// value generates code computing e. If dst is a valid operand the result is
// forced into dst (emitting the final operation with Dst=dst); otherwise a
// temp or immediate operand is returned.
func (b *builder) value(e ast.Expr, dst Operand) Operand {
	switch e := e.(type) {
	case *ast.IntLit:
		return b.intoDst(CI(e.Value), dst)
	case *ast.FloatLit:
		return b.intoDst(CF(e.Value), dst)

	case *ast.Ident:
		obj := e.Obj
		if obj == nil {
			return b.intoDst(CI(0), dst)
		}
		if _, isArr := obj.Type.(*ast.ArrayType); isArr || ast.IsStruct(obj.Type) {
			// Array (or aggregate) used as value: decays to its address.
			t := b.pickDst(dst, I)
			b.emit(&Instr{Kind: Addr, Dst: t, AddrObj: obj})
			return t
		}
		if obj.Kind == ast.ObjGlobal || obj.Addressed {
			a := b.fn.NewTemp(I)
			b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: obj})
			t := b.pickDst(dst, TyOf(obj.Type))
			b.emit(&Instr{Kind: Load, Dst: t, A: a})
			return t
		}
		return b.intoDst(VarOf(obj), dst)

	case *ast.BinaryExpr:
		switch e.Op {
		case token.ANDAND, token.OROR:
			return b.logicalValue(e, dst)
		}
		op, swap := irOp(e.Op)
		x := b.value(e.X, Operand{})
		y := b.value(e.Y, Operand{})
		if swap {
			x, y = y, x
		}
		// Pointer arithmetic scales the integer side by the element size.
		x, y = b.scalePointerArith(e, x, y)
		ty := TyOf(e.Type())
		if e.Op == token.MINUS && isPtrLike(e.X.Type()) && isPtrLike(e.Y.Type()) {
			// ptr - ptr: byte difference divided by the element size.
			diff := b.fn.NewTemp(I)
			b.emit(&Instr{Kind: BinOp, Op: Sub, Dst: diff, A: x, B: y})
			t := b.pickDst(dst, I)
			b.emit(&Instr{Kind: BinOp, Op: Div, Dst: t, A: diff, B: CI(int64(elemSize(e.X.Type())))})
			return t
		}
		t := b.pickDst(dst, ty)
		b.emit(&Instr{Kind: BinOp, Op: op, Dst: t, A: x, B: y})
		return t

	case *ast.UnaryExpr:
		switch e.Op {
		case token.MINUS:
			x := b.value(e.X, Operand{})
			t := b.pickDst(dst, TyOf(e.Type()))
			b.emit(&Instr{Kind: UnOp, Op: Neg, Dst: t, A: x})
			return t
		case token.NOT:
			x := b.value(e.X, Operand{})
			t := b.pickDst(dst, I)
			b.emit(&Instr{Kind: UnOp, Op: Not, Dst: t, A: x})
			return t
		case token.STAR:
			ptr := b.value(e.X, Operand{})
			t := b.pickDst(dst, TyOf(e.Type()))
			b.emit(&Instr{Kind: Load, Dst: t, A: ptr})
			return t
		case token.AMP:
			switch x := e.X.(type) {
			case *ast.Ident:
				t := b.pickDst(dst, I)
				b.emit(&Instr{Kind: Addr, Dst: t, AddrObj: x.Obj})
				return t
			case *ast.IndexExpr:
				addr, off := b.address(x)
				t := b.pickDst(dst, I)
				if off == 0 {
					return b.intoDstForce(addr, t)
				}
				b.emit(&Instr{Kind: BinOp, Op: Add, Dst: t, A: addr, B: CI(off)})
				return t
			}
		}
		panic("ir: bad unary")

	case *ast.IndexExpr:
		addr, off := b.address(e)
		t := b.pickDst(dst, TyOf(e.Type()))
		b.emit(&Instr{Kind: Load, Dst: t, A: addr, Off: off})
		return t

	case *ast.FieldExpr:
		base := structBaseObj(e)
		if base == nil {
			return b.intoDst(CI(0), dst)
		}
		a := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: Addr, Dst: a, AddrObj: base})
		t := b.pickDst(dst, TyOf(e.Type()))
		b.emit(&Instr{Kind: Load, Dst: t, A: a, Off: fieldOff(e)})
		return t

	case *ast.CallExpr:
		in := &Instr{Kind: Call, Callee: e.Fun.Name}
		for _, a := range e.Args {
			if st, ok := a.Type().(*ast.StructType); ok {
				// Flattened struct argument: push one value per field.
				id, okID := a.(*ast.Ident)
				if !okID || id.Obj == nil {
					continue
				}
				sa := b.fn.NewTemp(I)
				b.emit(&Instr{Kind: Addr, Dst: sa, AddrObj: id.Obj})
				for i, fld := range st.Fields {
					t := b.fn.NewTemp(TyOf(fld.Type))
					b.emit(&Instr{Kind: Load, Dst: t, A: sa, Off: int64(st.FieldOffset(i))})
					in.Args = append(in.Args, t)
				}
				continue
			}
			in.Args = append(in.Args, b.value(a, Operand{}))
		}
		retTy := e.Type()
		if retTy.Size() > 0 {
			in.Dst = b.pickDst(dst, TyOf(retTy))
		}
		b.emit(in)
		return in.Dst

	case *ast.CastExpr:
		x := b.value(e.X, Operand{})
		from := TyOf(e.X.Type())
		to := TyOf(e.To)
		if from == to {
			return b.intoDst(x, dst)
		}
		op := CvIF
		if to == I {
			op = CvFI
		}
		t := b.pickDst(dst, to)
		b.emit(&Instr{Kind: UnOp, Op: op, Dst: t, A: x})
		return t
	}
	panic(fmt.Sprintf("ir: unknown expression %T", e))
}

// scalePointerArith multiplies the int operand of ptr±int by the element
// size. Returns possibly-rewritten operands.
func (b *builder) scalePointerArith(e *ast.BinaryExpr, x, y Operand) (Operand, Operand) {
	if e.Op != token.PLUS && e.Op != token.MINUS {
		return x, y
	}
	xt, yt := e.X.Type(), e.Y.Type()
	xp := isPtrLike(xt)
	yp := isPtrLike(yt)
	switch {
	case xp && !yp && ast.IsInt(yt):
		t := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: BinOp, Op: Mul, Dst: t, A: y, B: CI(int64(elemSize(xt)))})
		return x, t
	case yp && !xp && ast.IsInt(xt): // int + ptr (swapped by caller if needed)
		t := b.fn.NewTemp(I)
		b.emit(&Instr{Kind: BinOp, Op: Mul, Dst: t, A: x, B: CI(int64(elemSize(yt)))})
		return t, y
	case xp && yp && e.Op == token.MINUS:
		// ptr - ptr: subtract then divide by element size; done by caller
		// as a plain sub here, then scaled below via an extra div.
		return x, y
	}
	return x, y
}

func isPtrLike(t ast.Type) bool {
	switch t.(type) {
	case *ast.PointerType, *ast.ArrayType:
		return true
	}
	return false
}

func elemSize(t ast.Type) int {
	switch t := t.(type) {
	case *ast.PointerType:
		return t.Elem.Size()
	case *ast.ArrayType:
		return t.Elem.Size()
	}
	return 4
}

// logicalValue materializes a short-circuit && / || as a 0/1 temp.
func (b *builder) logicalValue(e *ast.BinaryExpr, dst Operand) Operand {
	t := b.pickDst(dst, I)
	trueB := b.fn.NewBlock()
	falseB := b.fn.NewBlock()
	join := b.fn.NewBlock()
	b.cond(e, trueB, falseB)
	b.startBlock(trueB)
	b.emit(&Instr{Kind: Copy, Dst: t, A: CI(1)})
	b.jumpTo(join)
	b.startBlock(falseB)
	b.emit(&Instr{Kind: Copy, Dst: t, A: CI(0)})
	b.jumpTo(join)
	b.startBlock(join)
	return t
}

// cond emits control flow evaluating e, branching to thenB / elseB.
func (b *builder) cond(e ast.Expr, thenB, elseB *Block) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ANDAND:
			mid := b.fn.NewBlock()
			b.cond(e.X, mid, elseB)
			b.startBlock(mid)
			b.cond(e.Y, thenB, elseB)
			return
		case token.OROR:
			mid := b.fn.NewBlock()
			b.cond(e.X, thenB, mid)
			b.startBlock(mid)
			b.cond(e.Y, thenB, elseB)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, elseB, thenB)
			return
		}
	}
	v := b.value(e, Operand{})
	b.setTerm(&Instr{Kind: Br, A: v}, thenB, elseB)
}

// structBaseObj returns the object of the struct variable a field selection
// reads from (sem guarantees the operand is a direct variable reference).
func structBaseObj(e *ast.FieldExpr) *ast.Object {
	if id, ok := e.X.(*ast.Ident); ok {
		return id.Obj
	}
	return nil
}

// fieldOff returns the byte offset of the selected field.
func fieldOff(e *ast.FieldExpr) int64 { return int64(4 * e.Idx) }

// address computes the address operand (and constant offset) for a[i].
func (b *builder) address(e *ast.IndexExpr) (Operand, int64) {
	base := b.value(e.X, Operand{}) // array decays to Addr, ptr is a value
	esize := int64(elemSize(e.X.Type()))
	if lit, ok := e.Index.(*ast.IntLit); ok {
		return base, lit.Value * esize
	}
	idx := b.value(e.Index, Operand{})
	scaled := b.fn.NewTemp(I)
	b.emit(&Instr{Kind: BinOp, Op: Mul, Dst: scaled, A: idx, B: CI(esize)})
	sum := b.fn.NewTemp(I)
	b.emit(&Instr{Kind: BinOp, Op: Add, Dst: sum, A: base, B: scaled})
	return sum, 0
}

// pickDst returns dst if valid, else a fresh temp of class ty.
func (b *builder) pickDst(dst Operand, ty Ty) Operand {
	if dst.Valid() {
		return dst
	}
	return b.fn.NewTemp(ty)
}

// intoDst returns v directly, or copies it into dst when one is required.
func (b *builder) intoDst(v Operand, dst Operand) Operand {
	if !dst.Valid() {
		return v
	}
	return b.intoDstForce(v, dst)
}

func (b *builder) intoDstForce(v Operand, dst Operand) Operand {
	b.emit(&Instr{Kind: Copy, Dst: dst, A: v})
	return dst
}

// irOp maps an AST binary operator to an IR op; swap=true means operands
// must be exchanged (for > and >=, canonicalized to < and <=).
func irOp(k token.Kind) (Op, bool) {
	switch k {
	case token.PLUS:
		return Add, false
	case token.MINUS:
		return Sub, false
	case token.STAR:
		return Mul, false
	case token.SLASH:
		return Div, false
	case token.PERCENT:
		return Rem, false
	case token.SHL:
		return Shl, false
	case token.SHR:
		return Shr, false
	case token.OR:
		return BOr, false
	case token.XOR:
		return BXor, false
	case token.EQ:
		return Eq, false
	case token.NEQ:
		return Ne, false
	case token.LT:
		return Lt, false
	case token.LEQ:
		return Le, false
	case token.GT:
		return Gt, false
	case token.GEQ:
		return Ge, false
	}
	panic(fmt.Sprintf("ir: no IR op for %s", k))
}
