// Package source provides source files, positions, spans and diagnostics
// for the MiniC front end. Every later stage of the compiler (IR, machine
// code, debug info) refers back to source positions through this package,
// so that the debugger can present information in source terms.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a byte offset into a File, 0-based. NoPos marks a missing position.
type Pos int

// NoPos is the zero Pos, used for synthesized entities with no source origin.
const NoPos Pos = -1

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p >= 0 }

// File holds the contents of one MiniC source file and the line index
// needed to convert byte offsets to line/column pairs.
type File struct {
	Name    string
	Content string
	lines   []int // byte offset of the start of each line
}

// NewFile builds a File and its line index from raw content.
func NewFile(name, content string) *File {
	f := &File{Name: name, Content: content}
	f.lines = append(f.lines, 0)
	for i := 0; i < len(content); i++ {
		if content[i] == '\n' {
			f.lines = append(f.lines, i+1)
		}
	}
	return f
}

// NumLines returns the number of lines in the file.
func (f *File) NumLines() int { return len(f.lines) }

// Position converts a Pos to a human-readable line/column location.
func (f *File) Position(p Pos) Position {
	if !p.IsValid() || f == nil {
		return Position{Filename: "?", Line: 0, Col: 0}
	}
	i := sort.Search(len(f.lines), func(i int) bool { return f.lines[i] > int(p) }) - 1
	if i < 0 {
		i = 0
	}
	return Position{Filename: f.Name, Line: i + 1, Col: int(p) - f.lines[i] + 1}
}

// Position is a resolved file/line/column location.
type Position struct {
	Filename string
	Line     int // 1-based
	Col      int // 1-based
}

func (p Position) String() string {
	if p.Line == 0 {
		return p.Filename + ":?"
	}
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Col)
}

// Span is a half-open [Start, End) range of source bytes.
type Span struct {
	Start, End Pos
}

// IsValid reports whether the span refers to actual source text.
func (s Span) IsValid() bool { return s.Start.IsValid() && s.End.IsValid() }

// Union returns the smallest span covering both s and t.
func (s Span) Union(t Span) Span {
	if !s.IsValid() {
		return t
	}
	if !t.IsValid() {
		return s
	}
	u := s
	if t.Start < u.Start {
		u.Start = t.Start
	}
	if t.End > u.End {
		u.End = t.End
	}
	return u
}

// Diagnostic is a single compiler error or warning tied to a position.
type Diagnostic struct {
	Pos  Pos
	Msg  string
	File *File
}

func (d Diagnostic) Error() string {
	if d.File != nil {
		return d.File.Position(d.Pos).String() + ": " + d.Msg
	}
	return d.Msg
}

// ErrorList accumulates diagnostics; it implements error.
type ErrorList struct {
	Diags []Diagnostic
}

// Add appends a formatted diagnostic.
func (l *ErrorList) Add(f *File, pos Pos, format string, args ...any) {
	l.Diags = append(l.Diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...), File: f})
}

// Len returns the number of accumulated diagnostics.
func (l *ErrorList) Len() int { return len(l.Diags) }

// Err returns the list as an error, or nil if empty.
func (l *ErrorList) Err() error {
	if l == nil || len(l.Diags) == 0 {
		return nil
	}
	return l
}

func (l *ErrorList) Error() string {
	var b strings.Builder
	for i, d := range l.Diags {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return b.String()
}
