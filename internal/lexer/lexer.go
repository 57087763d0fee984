// Package lexer implements a hand-written scanner for MiniC.
package lexer

import (
	"repro/internal/source"
	"repro/internal/token"
)

// Lexer turns MiniC source text into a token stream.
type Lexer struct {
	file *source.File
	src  string
	pos  int
	errs *source.ErrorList
}

// New creates a Lexer over f, reporting errors into errs.
func New(f *source.File, errs *source.ErrorList) *Lexer {
	return &Lexer{file: f, src: f.Content, errs: errs}
}

// ScanAll scans the whole file, returning all tokens ending with EOF.
// The slice is presized from the source length: MiniC runs 2.3 to 4.5
// source bytes a token, so one allocation almost always suffices.
func (l *Lexer) ScanAll() []token.Token {
	toks := make([]token.Token, 0, len(l.src)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos < len(l.src) {
		return l.src[l.pos]
	}
	return 0
}

func (l *Lexer) peek2() byte {
	if l.pos+1 < len(l.src) {
		return l.src[l.pos+1]
	}
	return 0
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.pos++
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos
			l.pos += 2
			closed := false
			for l.pos+1 < len(l.src) {
				if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
					l.pos += 2
					closed = true
					break
				}
				l.pos++
			}
			if !closed {
				l.pos = len(l.src)
				l.errs.Add(l.file, source.Pos(start), "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: start, End: start}
	}
	c := l.src[l.pos]

	switch {
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		lit := l.src[start:l.pos]
		if k, ok := token.Keywords[lit]; ok {
			return token.Token{Kind: k, Lit: lit, Pos: start, End: l.pos}
		}
		return token.Token{Kind: token.IDENT, Lit: lit, Pos: start, End: l.pos}

	case isDigit(c):
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.peek() == '.' && isDigit(l.peek2()) {
			isFloat = true
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.pos
			l.pos++
			if l.peek() == '+' || l.peek() == '-' {
				l.pos++
			}
			if isDigit(l.peek()) {
				isFloat = true
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			} else {
				l.pos = save
			}
		}
		kind := token.INTLIT
		if isFloat {
			kind = token.FLOATLIT
		}
		return token.Token{Kind: kind, Lit: l.src[start:l.pos], Pos: start, End: l.pos}

	case c == '\'':
		l.pos++
		lit := ""
		if l.peek() == '\\' {
			l.pos++
			switch l.peek() {
			case 'n':
				lit = "\n"
			case 't':
				lit = "\t"
			case '0':
				lit = "\x00"
			case '\\':
				lit = "\\"
			case '\'':
				lit = "'"
			default:
				l.errs.Add(l.file, source.Pos(l.pos), "unknown escape '\\%c'", l.peek())
				lit = string(l.peek())
			}
			l.pos++
		} else if l.pos < len(l.src) && l.src[l.pos] != '\'' {
			lit = string(l.src[l.pos])
			l.pos++
		}
		if l.peek() != '\'' {
			l.errs.Add(l.file, source.Pos(start), "unterminated char literal")
		} else {
			l.pos++
		}
		return token.Token{Kind: token.CHARLIT, Lit: lit, Pos: start, End: l.pos}

	case c == '"':
		l.pos++
		var lit []byte
		for l.pos < len(l.src) && l.src[l.pos] != '"' && l.src[l.pos] != '\n' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					lit = append(lit, '\n')
				case 't':
					lit = append(lit, '\t')
				case '"':
					lit = append(lit, '"')
				case '\\':
					lit = append(lit, '\\')
				default:
					lit = append(lit, l.src[l.pos])
				}
				l.pos++
				continue
			}
			lit = append(lit, l.src[l.pos])
			l.pos++
		}
		if l.peek() != '"' {
			l.errs.Add(l.file, source.Pos(start), "unterminated string literal")
		} else {
			l.pos++
		}
		return token.Token{Kind: token.STRLIT, Lit: string(lit), Pos: start, End: l.pos}
	}

	// Operators and punctuation.
	two := func(kind token.Kind) token.Token {
		l.pos += 2
		return token.Token{Kind: kind, Pos: start, End: l.pos}
	}
	one := func(kind token.Kind) token.Token {
		l.pos++
		return token.Token{Kind: kind, Pos: start, End: l.pos}
	}
	switch c {
	case '+':
		switch l.peek2() {
		case '+':
			return two(token.INC)
		case '=':
			return two(token.PLUSASSIGN)
		}
		return one(token.PLUS)
	case '-':
		switch l.peek2() {
		case '-':
			return two(token.DEC)
		case '=':
			return two(token.MINUSASSIGN)
		}
		return one(token.MINUS)
	case '*':
		if l.peek2() == '=' {
			return two(token.STARASSIGN)
		}
		return one(token.STAR)
	case '/':
		if l.peek2() == '=' {
			return two(token.SLASHASSIGN)
		}
		return one(token.SLASH)
	case '%':
		return one(token.PERCENT)
	case '&':
		if l.peek2() == '&' {
			return two(token.ANDAND)
		}
		return one(token.AMP)
	case '|':
		if l.peek2() == '|' {
			return two(token.OROR)
		}
		return one(token.OR)
	case '^':
		return one(token.XOR)
	case '=':
		if l.peek2() == '=' {
			return two(token.EQ)
		}
		return one(token.ASSIGN)
	case '!':
		if l.peek2() == '=' {
			return two(token.NEQ)
		}
		return one(token.NOT)
	case '<':
		switch l.peek2() {
		case '=':
			return two(token.LEQ)
		case '<':
			return two(token.SHL)
		}
		return one(token.LT)
	case '>':
		switch l.peek2() {
		case '=':
			return two(token.GEQ)
		case '>':
			return two(token.SHR)
		}
		return one(token.GT)
	case '(':
		return one(token.LPAREN)
	case ')':
		return one(token.RPAREN)
	case '{':
		return one(token.LBRACE)
	case '}':
		return one(token.RBRACE)
	case '[':
		return one(token.LBRACKET)
	case ']':
		return one(token.RBRACKET)
	case ',':
		return one(token.COMMA)
	case ';':
		return one(token.SEMI)
	case '.':
		return one(token.DOT)
	}
	l.errs.Add(l.file, source.Pos(start), "illegal character %q", string(c))
	l.pos++
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: start, End: l.pos}
}
