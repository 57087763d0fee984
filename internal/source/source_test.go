package source

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPositionLineCol(t *testing.T) {
	f := NewFile("a.mc", "abc\ndef\n\nx")
	cases := []struct {
		pos  Pos
		line int
		col  int
	}{
		{0, 1, 1}, {2, 1, 3}, {4, 2, 1}, {6, 2, 3}, {8, 3, 1}, {9, 4, 1},
	}
	for _, c := range cases {
		p := f.Position(c.pos)
		if p.Line != c.line || p.Col != c.col {
			t.Errorf("pos %d -> %d:%d, want %d:%d", c.pos, p.Line, p.Col, c.line, c.col)
		}
	}
	if f.NumLines() != 4 {
		t.Errorf("NumLines = %d", f.NumLines())
	}
}

func TestInvalidPosition(t *testing.T) {
	f := NewFile("a.mc", "x")
	p := f.Position(NoPos)
	if p.Line != 0 || !strings.Contains(p.String(), "?") {
		t.Errorf("invalid position rendered %q", p)
	}
}

// Property: Position round-trips monotonically — later offsets never map
// to earlier lines.
func TestQuickPositionMonotonic(t *testing.T) {
	content := "line one\nline two is longer\n\nline four\nfinal"
	f := NewFile("t.mc", content)
	check := func(a, b uint8) bool {
		pa, pb := int(a)%len(content), int(b)%len(content)
		if pa > pb {
			pa, pb = pb, pa
		}
		la := f.Position(Pos(pa)).Line
		lb := f.Position(Pos(pb)).Line
		return la <= lb
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSpanUnion(t *testing.T) {
	s1 := Span{0, 5}
	s2 := Span{6, 11}
	u := s1.Union(s2)
	if u.Start != 0 || u.End != 11 {
		t.Errorf("union = %+v", u)
	}
	if (Span{NoPos, NoPos}).Union(s1) != s1 {
		t.Error("union with an invalid span should return the valid span")
	}
}

func TestErrorList(t *testing.T) {
	f := NewFile("a.mc", "ab\ncd")
	var errs ErrorList
	if errs.Err() != nil {
		t.Error("empty list should be nil error")
	}
	errs.Add(f, 3, "bad %s", "thing")
	errs.Add(f, 0, "worse")
	err := errs.Err()
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "a.mc:2:1: bad thing") {
		t.Errorf("message %q missing located diagnostic", msg)
	}
	if !strings.Contains(msg, "worse") {
		t.Errorf("message %q missing second diagnostic", msg)
	}
	if errs.Len() != 2 {
		t.Errorf("len = %d", errs.Len())
	}
}
