package sem

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/randprog"
)

func checkOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("check error: %v", err)
	}
	return p
}

func checkErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := CheckSource("test.mc", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

func TestCheckSimple(t *testing.T) {
	p := checkOK(t, `
int add(int a, int b) { return a + b; }
int main() { return add(1, 2); }
`)
	add := p.File.LookupFunc("add")
	if len(add.Locals) != 2 {
		t.Errorf("add has %d locals, want 2 (params)", len(add.Locals))
	}
	if add.Locals[0].Kind != ast.ObjParam {
		t.Errorf("first local should be a param")
	}
}

func TestCheckStatementIDs(t *testing.T) {
	p := checkOK(t, `
int main() {
	int x = 1;
	int y = 2;
	if (x < y) { x = y; }
	return x;
}
`)
	fn := p.File.LookupFunc("main")
	if fn.NumStmts != 5 {
		t.Errorf("NumStmts = %d, want 5 (2 decls, if, then-assign, return)", fn.NumStmts)
	}
	ids := map[int]bool{}
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		if b, ok := s.(*ast.Block); ok {
			for _, st := range b.Stmts {
				walk(st)
			}
			return
		}
		if ids[s.ID()] {
			t.Errorf("duplicate statement ID %d", s.ID())
		}
		ids[s.ID()] = true
		if ifs, ok := s.(*ast.IfStmt); ok {
			walk(ifs.Then)
			if ifs.Else != nil {
				walk(ifs.Else)
			}
		}
	}
	walk(fn.Body)
	if len(ids) != fn.NumStmts {
		t.Errorf("got %d distinct IDs, want %d", len(ids), fn.NumStmts)
	}
}

func TestCheckScopes(t *testing.T) {
	p := checkOK(t, `
int main() {
	int x = 1;
	if (x) {
		int y = 2;
		x = y;
	}
	return x;
}
`)
	fn := p.File.LookupFunc("main")
	var x, y *ast.Object
	for _, o := range fn.Locals {
		switch o.Name {
		case "x":
			x = o
		case "y":
			y = o
		}
	}
	if x == nil || y == nil {
		t.Fatal("missing locals")
	}
	if y.ScopeEnd > x.ScopeEnd {
		t.Errorf("inner y scope [%d,%d) should end before x scope [%d,%d)",
			y.ScopeStart, y.ScopeEnd, x.ScopeStart, x.ScopeEnd)
	}
	if y.ScopeStart <= x.ScopeStart {
		t.Errorf("y should start after x")
	}
}

func TestCheckAddressed(t *testing.T) {
	p := checkOK(t, `
int main() {
	int x = 1;
	int y = 2;
	int *p = &x;
	int a[4];
	a[0] = *p + y;
	return a[0];
}
`)
	fn := p.File.LookupFunc("main")
	want := map[string]bool{"x": true, "y": false, "p": false, "a": true}
	for _, o := range fn.Locals {
		if w, ok := want[o.Name]; ok && o.Addressed != w {
			t.Errorf("%s.Addressed = %v, want %v", o.Name, o.Addressed, w)
		}
	}
}

func TestCheckImplicitConversions(t *testing.T) {
	p := checkOK(t, `
float half(int x) { return x / 2.0; }
int main() { float f = half(3); int i = f; return i; }
`)
	half := p.File.LookupFunc("half")
	ret := half.Body.Stmts[0].(*ast.ReturnStmt)
	bin := ret.X.(*ast.BinaryExpr)
	if !ast.IsFloat(bin.Type()) {
		t.Errorf("x / 2.0 should be float, got %v", bin.Type())
	}
	if _, ok := bin.X.(*ast.CastExpr); !ok {
		t.Errorf("int operand should get an implicit cast, got %T", bin.X)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`int main() { return y; }`, "undeclared"},
		{`int main() { int x; int x; return 0; }`, "duplicate"},
		{`int f() { return 1; } int f() { return 2; } int main() { return 0; }`, "duplicate"},
		{`int main() { break; }`, "break outside loop"},
		{`int main() { continue; }`, "continue outside loop"},
		{`void f() { return 1; } int main() { return 0; }`, "void function"},
		{`int f() { return; } int main() { return 0; }`, "returns no value"},
		{`int main() { int a[3]; a = 2; return 0; }`, "cannot assign to array"},
		{`int main() { int x; x = main; return 0; }`, "cannot convert"},
		{`int main(int a) { return f(1); }`, "undeclared function"},
		{`int g(int a) { return a; } int main() { return g(1, 2); }`, "2 args, want 1"},
		{`int main() { int x = 1.5 % 2; return x; }`, "must be int"},
		{`int main() { int x = *4; return x; }`, "cannot dereference"},
		{`float x; int main() { float *p = &x; int *q; q = p; return 0; }`, "cannot assign"},
		{`int main() { 1 + 2; return 0; }`, "must be a call"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestCheckNoMain(t *testing.T) {
	checkErr(t, `int f() { return 0; }`, "no function 'main'")
}

func TestCheckGlobalInit(t *testing.T) {
	checkOK(t, `int g = 3; float h = 2.5; int main() { return g; }`)
	checkErr(t, `int g = 1 + 2; int main() { return g; }`, "constant literal")
}

func TestCheckVariableIDsDense(t *testing.T) {
	p := checkOK(t, `
int f(int a, float b) {
	int c = 1;
	float d = b;
	return a + c + int(d);
}
int main() { return f(1, 2.0); }
`)
	fn := p.File.LookupFunc("f")
	for i, o := range fn.Locals {
		if o.ID != i {
			t.Errorf("local %s has ID %d at index %d", o.Name, o.ID, i)
		}
	}
}

// TestStmtLinesMatchStatements: the checker records one line per
// statement ID, the line its statement starts on, over the workloads and
// randprog.Gen(1..200).
func TestStmtLinesMatchStatements(t *testing.T) {
	srcs := map[string]string{}
	paths, err := filepath.Glob("../bench/testdata/*.mc")
	if err != nil || len(paths) != 8 {
		t.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(b)
	}
	for seed := int64(1); seed <= 200; seed++ {
		srcs[fmt.Sprintf("rand%d.mc", seed)] = randprog.Gen(seed)
	}
	for name, src := range srcs {
		p, err := CheckSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fn := range p.Funcs {
			stmts := ast.StmtsByID(fn)
			if len(fn.StmtLines) != fn.NumStmts {
				t.Fatalf("%s: %s has %d statement lines for %d statements", name, fn.Name, len(fn.StmtLines), fn.NumStmts)
			}
			for s, st := range stmts {
				if want := p.File.Source.Position(st.Span().Start).Line; int(fn.StmtLines[s]) != want {
					t.Fatalf("%s: %s statement %d on line %d, recorded %d", name, fn.Name, s, want, fn.StmtLines[s])
				}
			}
		}
	}
}
