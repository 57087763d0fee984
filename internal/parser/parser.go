// Package parser implements a recursive-descent parser for MiniC.
package parser

import (
	"errors"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/source"
	"repro/internal/token"
)

// Parser holds parse state for one file.
type Parser struct {
	file    *source.File
	toks    []token.Token
	pos     int
	errs    *source.ErrorList
	structs map[string]*ast.StructType // file-scope struct types, by name
}

// Parse parses the given MiniC source text into an AST file. Errors are
// accumulated into errs; a partial AST is returned even on error.
func Parse(f *source.File, errs *source.ErrorList) *ast.File {
	p := &Parser{file: f, errs: errs, structs: make(map[string]*ast.StructType)}
	p.toks = lexer.New(f, errs).ScanAll()
	return p.parseFile()
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }
func (p *Parser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) (token.Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return token.Token{}, false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos, End: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs.Add(p.file, source.Pos(p.cur().Pos), format, args...)
}

func spanOf(a, b token.Token) source.Span {
	return source.Span{Start: source.Pos(a.Pos), End: source.Pos(b.End)}
}

func (p *Parser) spanFrom(start token.Token) source.Span {
	end := p.toks[p.pos-1]
	return spanOf(start, end)
}

// sync skips tokens until a likely statement boundary, for error recovery.
func (p *Parser) sync() {
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.SEMI:
			p.next()
			return
		case token.RBRACE, token.KwInt, token.KwFloat, token.KwVoid, token.KwStruct,
			token.KwIf, token.KwWhile, token.KwFor, token.KwReturn:
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------- file

func (p *Parser) parseFile() *ast.File {
	af := &ast.File{Source: p.file}
	for !p.at(token.EOF) {
		start := p.pos
		if p.atStructDecl() {
			if d := p.parseStructDecl(); d != nil {
				af.Structs = append(af.Structs, d)
			}
			if p.pos == start {
				p.next()
			}
			continue
		}
		if !p.atType() {
			p.errorf("expected declaration, found %s", p.cur())
			p.sync()
			if p.pos == start {
				p.next()
			}
			continue
		}
		typ := p.parseType()
		name := p.expect(token.IDENT)
		if p.at(token.LPAREN) {
			af.Funcs = append(af.Funcs, p.parseFuncRest(typ, name))
		} else {
			af.Globals = append(af.Globals, p.parseGlobalRest(typ, name))
		}
		if p.pos == start { // no progress; avoid infinite loop
			p.next()
		}
	}
	return af
}

func (p *Parser) atType() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwFloat, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

// atStructDecl reports whether the parser is at a file-scope struct type
// declaration ("struct Name {"), as opposed to a struct-typed variable or
// function ("struct Name x;").
func (p *Parser) atStructDecl() bool {
	if !p.at(token.KwStruct) || p.peek().Kind != token.IDENT {
		return false
	}
	if p.pos+2 < len(p.toks) {
		return p.toks[p.pos+2].Kind == token.LBRACE
	}
	return false
}

// parseStructDecl parses "struct Name { type field; ... };". Fields must be
// scalar; that (and duplicate names) is validated by the checker.
func (p *Parser) parseStructDecl() *ast.StructDecl {
	start := p.next() // struct
	name := p.expect(token.IDENT)
	st := &ast.StructType{Name: name.Lit}
	if _, dup := p.structs[name.Lit]; dup {
		p.errorf("struct %q redeclared", name.Lit)
	} else {
		p.structs[name.Lit] = st
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		fieldStart := p.pos
		ft := p.parseType()
		fn := p.expect(token.IDENT)
		p.expect(token.SEMI)
		st.Fields = append(st.Fields, ast.StructField{Name: fn.Lit, Type: ft})
		if p.pos == fieldStart {
			p.next()
		}
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return &ast.StructDecl{Name: name.Lit, Typ: st, Spn: p.spanFrom(start)}
}

func (p *Parser) parseType() ast.Type {
	var t ast.Type
	switch p.cur().Kind {
	case token.KwInt:
		t = ast.IntType
	case token.KwFloat:
		t = ast.FloatType
	case token.KwVoid:
		t = ast.VoidType
	case token.KwStruct:
		p.next() // struct
		name := p.expect(token.IDENT)
		if st, ok := p.structs[name.Lit]; ok {
			return st // no pointer-to-struct: stop before the STAR loop
		}
		p.errorf("undefined struct %q", name.Lit)
		return ast.IntType
	default:
		p.errorf("expected type, found %s", p.cur())
		t = ast.IntType
	}
	p.next()
	for p.at(token.STAR) {
		p.next()
		t = &ast.PointerType{Elem: t}
	}
	return t
}

// parseArrayLen parses an array length and its closing bracket. A length
// that is not positive, or does not fit in an int, is an error; it then
// reads as 1 so parsing goes on.
func (p *Parser) parseArrayLen() int {
	n := p.expect(token.INTLIT)
	ln, err := strconv.Atoi(n.Lit)
	switch {
	case errors.Is(err, strconv.ErrRange):
		p.errorf("array length %s is out of range", n.Lit)
		ln = 1
	case ln <= 0:
		p.errorf("array length must be positive")
		ln = 1
	}
	p.expect(token.RBRACKET)
	return ln
}

func (p *Parser) parseGlobalRest(typ ast.Type, name token.Token) *ast.VarDecl {
	d := &ast.VarDecl{Name: name.Lit, Typ: typ, Spn: spanOf(name, name)}
	if _, ok := p.accept(token.LBRACKET); ok {
		d.Typ = &ast.ArrayType{Elem: typ, Len: p.parseArrayLen()}
	}
	if _, ok := p.accept(token.ASSIGN); ok {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return d
}

func (p *Parser) parseFuncRest(ret ast.Type, name token.Token) *ast.FuncDecl {
	fd := &ast.FuncDecl{Name: name.Lit, Ret: ret, Spn: spanOf(name, name)}
	p.expect(token.LPAREN)
	if !p.at(token.RPAREN) {
		for {
			pt := p.parseType()
			pn := p.expect(token.IDENT)
			if _, ok := p.accept(token.LBRACKET); ok {
				// Array parameters decay to pointers, as in C.
				p.expect(token.RBRACKET)
				pt = &ast.PointerType{Elem: pt}
			}
			fd.Params = append(fd.Params, &ast.VarDecl{
				Name: pn.Lit, Typ: pt, Spn: spanOf(pn, pn), Param: true,
			})
			if _, ok := p.accept(token.COMMA); !ok {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	fd.Body = p.parseBlock()
	return fd
}

// ---------------------------------------------------------------- stmts

func (p *Parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	var stmts []ast.Stmt
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		start := p.pos
		stmts = append(stmts, p.parseStmt())
		if p.pos == start {
			p.next()
		}
	}
	rb := p.expect(token.RBRACE)
	return ast.NewBlock(stmts, spanOf(lb, rb))
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.KwInt, token.KwFloat, token.KwStruct:
		return p.parseDeclStmt()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		start := p.next()
		s := &ast.ReturnStmt{}
		if !p.at(token.SEMI) {
			s.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		setSpan(s, p.spanFrom(start))
		return s
	case token.KwBreak:
		start := p.next()
		p.expect(token.SEMI)
		s := &ast.BreakStmt{}
		setSpan(s, p.spanFrom(start))
		return s
	case token.KwContinue:
		start := p.next()
		p.expect(token.SEMI)
		s := &ast.ContinueStmt{}
		setSpan(s, p.spanFrom(start))
		return s
	case token.KwPrint:
		return p.parsePrint()
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		start := p.next()
		b := ast.NewBlock(nil, spanOf(start, start))
		return b
	default:
		return p.parseSimpleStmtSemi()
	}
}

func (p *Parser) parseDeclStmt() ast.Stmt {
	start := p.cur()
	typ := p.parseType()
	name := p.expect(token.IDENT)
	d := &ast.VarDecl{Name: name.Lit, Typ: typ, Spn: spanOf(name, name)}
	if _, ok := p.accept(token.LBRACKET); ok {
		d.Typ = &ast.ArrayType{Elem: typ, Len: p.parseArrayLen()}
	}
	if _, ok := p.accept(token.ASSIGN); ok {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	s := &ast.DeclStmt{Decl: d}
	setSpan(s, p.spanFrom(start))
	return s
}

func (p *Parser) parseIf() ast.Stmt {
	start := p.next() // if
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	thenB := p.parseBodyBlock()
	s := &ast.IfStmt{Cond: cond, Then: thenB}
	if _, ok := p.accept(token.KwElse); ok {
		if p.at(token.KwIf) {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBodyBlock()
		}
	}
	setSpan(s, p.spanFrom(start))
	return s
}

// parseBodyBlock parses either a braced block or a single statement wrapped
// in a block, so that control-structure bodies are always blocks.
func (p *Parser) parseBodyBlock() *ast.Block {
	if p.at(token.LBRACE) {
		return p.parseBlock()
	}
	start := p.cur()
	st := p.parseStmt()
	return ast.NewBlock([]ast.Stmt{st}, spanOf(start, p.toks[p.pos-1]))
}

func (p *Parser) parseWhile() ast.Stmt {
	start := p.next()
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseBodyBlock()
	s := &ast.WhileStmt{Cond: cond, Body: body}
	setSpan(s, p.spanFrom(start))
	return s
}

func (p *Parser) parseDoWhile() ast.Stmt {
	start := p.next()
	body := p.parseBodyBlock()
	p.expect(token.KwWhile)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	s := &ast.DoWhileStmt{Body: body, Cond: cond}
	setSpan(s, p.spanFrom(start))
	return s
}

func (p *Parser) parseFor() ast.Stmt {
	start := p.next()
	p.expect(token.LPAREN)
	s := &ast.ForStmt{}
	if !p.at(token.SEMI) {
		if p.atType() {
			s.Init = p.parseDeclStmt() // consumes the semicolon
		} else {
			s.Init = p.parseSimpleStmt()
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	if !p.at(token.SEMI) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		s.Post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseBodyBlock()
	setSpan(s, p.spanFrom(start))
	return s
}

func (p *Parser) parsePrint() ast.Stmt {
	start := p.next()
	p.expect(token.LPAREN)
	s := &ast.PrintStmt{}
	if !p.at(token.RPAREN) {
		for {
			if p.at(token.STRLIT) {
				t := p.next()
				s.Args = append(s.Args, ast.PrintArg{Str: t.Lit, IsStr: true})
			} else {
				s.Args = append(s.Args, ast.PrintArg{X: p.parseExpr()})
			}
			if _, ok := p.accept(token.COMMA); !ok {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	setSpan(s, p.spanFrom(start))
	return s
}

// parseSimpleStmt parses an assignment, inc/dec or expression statement
// without the trailing semicolon.
func (p *Parser) parseSimpleStmt() ast.Stmt {
	start := p.cur()
	lhs := p.parseExpr()
	switch {
	case p.cur().Kind.IsAssignOp():
		op := p.next().Kind
		rhs := p.parseExpr()
		s := &ast.AssignStmt{Op: op, LHS: lhs, RHS: rhs}
		setSpan(s, p.spanFrom(start))
		return s
	case p.at(token.INC) || p.at(token.DEC):
		op := p.next().Kind
		s := &ast.IncDecStmt{Op: op, X: lhs}
		setSpan(s, p.spanFrom(start))
		return s
	default:
		s := &ast.ExprStmt{X: lhs}
		setSpan(s, p.spanFrom(start))
		return s
	}
}

func (p *Parser) parseSimpleStmtSemi() ast.Stmt {
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

func setSpan(s ast.Stmt, sp source.Span) {
	if d, ok := s.(*ast.DeclStmt); ok {
		d.Decl.Spn = d.Decl.Spn.Union(sp)
	}
	s.SetSpan(sp)
}

// ---------------------------------------------------------------- exprs

// Binary operator precedence, from lowest (1) upward. 0 = not binary.
func precOf(k token.Kind) int {
	switch k {
	case token.OROR:
		return 1
	case token.ANDAND:
		return 2
	case token.OR:
		return 3
	case token.XOR:
		return 4
	case token.EQ, token.NEQ:
		return 5
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return 6
	case token.SHL, token.SHR:
		return 7
	case token.PLUS, token.MINUS:
		return 8
	case token.STAR, token.SLASH, token.PERCENT:
		return 9
	}
	return 0
}

func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := precOf(p.cur().Kind)
		if prec < minPrec {
			return x
		}
		op := p.next().Kind
		y := p.parseBinary(prec + 1)
		x = ast.NewBinary(op, x, y, x.Span().Union(y.Span()))
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.MINUS, token.NOT, token.STAR, token.AMP:
		op := p.next()
		x := p.parseUnary()
		return ast.NewUnary(op.Kind, x, spanOf(op, op).Union(x.Span()))
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LBRACKET:
			p.next()
			idx := p.parseExpr()
			rb := p.expect(token.RBRACKET)
			e := &ast.IndexExpr{X: x, Index: idx}
			setExprSpan(e, x.Span().Union(spanOf(rb, rb)))
			x = e
		case token.DOT:
			p.next()
			fn := p.expect(token.IDENT)
			e := &ast.FieldExpr{X: x, Name: fn.Lit, Idx: -1}
			setExprSpan(e, x.Span().Union(spanOf(fn, fn)))
			x = e
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.next()
		id := ast.NewIdent(t.Lit, spanOf(t, t))
		if p.at(token.LPAREN) {
			p.next()
			call := &ast.CallExpr{Fun: id}
			if !p.at(token.RPAREN) {
				for {
					call.Args = append(call.Args, p.parseExpr())
					if _, ok := p.accept(token.COMMA); !ok {
						break
					}
				}
			}
			rp := p.expect(token.RPAREN)
			setExprSpan(call, spanOf(t, rp))
			return call
		}
		return id
	case token.INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf("bad integer literal %q", t.Lit)
		}
		return ast.NewIntLit(v, spanOf(t, t))
	case token.FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf("bad float literal %q", t.Lit)
		}
		return ast.NewFloatLit(v, spanOf(t, t))
	case token.CHARLIT:
		p.next()
		var v int64
		if len(t.Lit) > 0 {
			v = int64(t.Lit[0])
		}
		return ast.NewIntLit(v, spanOf(t, t))
	case token.KwInt, token.KwFloat:
		// Cast syntax: int(x) / float(x).
		p.next()
		to := ast.IntType
		if t.Kind == token.KwFloat {
			to = ast.FloatType
		}
		p.expect(token.LPAREN)
		x := p.parseExpr()
		rp := p.expect(token.RPAREN)
		return ast.NewCast(to, x, spanOf(t, rp))
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf("expected expression, found %s", t)
	p.next()
	return ast.NewIntLit(0, spanOf(t, t))
}

func setExprSpan(e ast.Expr, sp source.Span) { e.SetSpan(sp) }
