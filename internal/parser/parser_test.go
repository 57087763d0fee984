package parser

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/token"
)

// parseSource parses text and returns an error if there were any
// diagnostics.
func parseSource(name, text string) (*ast.File, error) {
	var errs source.ErrorList
	f := Parse(source.NewFile(name, text), &errs)
	return f, errs.Err()
}

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parseSource("test.mc", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func TestParseFunction(t *testing.T) {
	f := parseOK(t, `
int add(int a, int b) {
	return a + b;
}
`)
	if len(f.Funcs) != 1 {
		t.Fatalf("got %d funcs", len(f.Funcs))
	}
	fn := f.Funcs[0]
	if fn.Name != "add" || len(fn.Params) != 2 {
		t.Errorf("bad func: %s with %d params", fn.Name, len(fn.Params))
	}
	if len(fn.Body.Stmts) != 1 {
		t.Fatalf("got %d stmts", len(fn.Body.Stmts))
	}
	ret, ok := fn.Body.Stmts[0].(*ast.ReturnStmt)
	if !ok {
		t.Fatalf("stmt is %T", fn.Body.Stmts[0])
	}
	bin, ok := ret.X.(*ast.BinaryExpr)
	if !ok || bin.Op != token.PLUS {
		t.Errorf("return expr is %T", ret.X)
	}
}

func TestParseGlobals(t *testing.T) {
	f := parseOK(t, `
int g = 5;
float table[100];
int main() { return g; }
`)
	if len(f.Globals) != 2 {
		t.Fatalf("got %d globals", len(f.Globals))
	}
	if f.Globals[0].Init == nil {
		t.Error("g should have initializer")
	}
	arr, ok := f.Globals[1].Typ.(*ast.ArrayType)
	if !ok || arr.Len != 100 {
		t.Errorf("table type = %v", f.Globals[1].Typ)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := parseOK(t, `int main() { int x = 1 + 2 * 3; return x; }`)
	decl := f.Funcs[0].Body.Stmts[0].(*ast.DeclStmt)
	add, ok := decl.Decl.Init.(*ast.BinaryExpr)
	if !ok || add.Op != token.PLUS {
		t.Fatalf("top op: %v", decl.Decl.Init)
	}
	mul, ok := add.Y.(*ast.BinaryExpr)
	if !ok || mul.Op != token.STAR {
		t.Fatalf("rhs should be multiplication, got %T", add.Y)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := parseOK(t, `
int main() {
	int i;
	for (i = 0; i < 10; i++) {
		if (i == 5) { break; } else { continue; }
	}
	while (i > 0) { i--; }
	do { i++; } while (i < 3);
	return i;
}
`)
	stmts := f.Funcs[0].Body.Stmts
	if _, ok := stmts[1].(*ast.ForStmt); !ok {
		t.Errorf("stmt 1 is %T, want ForStmt", stmts[1])
	}
	if _, ok := stmts[2].(*ast.WhileStmt); !ok {
		t.Errorf("stmt 2 is %T, want WhileStmt", stmts[2])
	}
	if _, ok := stmts[3].(*ast.DoWhileStmt); !ok {
		t.Errorf("stmt 3 is %T, want DoWhileStmt", stmts[3])
	}
}

func TestParsePointerAndArray(t *testing.T) {
	f := parseOK(t, `
int sum(int a[], int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) { s += a[i]; }
	return s;
}
int main() {
	int buf[8];
	int *p = &buf[0];
	*p = 3;
	return sum(buf, 8);
}
`)
	sum := f.Funcs[0]
	if _, ok := sum.Params[0].Typ.(*ast.PointerType); !ok {
		t.Errorf("array param should decay to pointer, got %v", sum.Params[0].Typ)
	}
}

func TestParseElseIfChain(t *testing.T) {
	f := parseOK(t, `
int classify(int x) {
	if (x < 0) { return -1; }
	else if (x == 0) { return 0; }
	else { return 1; }
}
int main() { return classify(3); }
`)
	ifS := f.Funcs[0].Body.Stmts[0].(*ast.IfStmt)
	if _, ok := ifS.Else.(*ast.IfStmt); !ok {
		t.Errorf("else-if should parse as nested IfStmt, got %T", ifS.Else)
	}
}

func TestParsePrint(t *testing.T) {
	f := parseOK(t, `int main() { print("x=", 1+2, "\n"); return 0; }`)
	ps := f.Funcs[0].Body.Stmts[0].(*ast.PrintStmt)
	if len(ps.Args) != 3 || !ps.Args[0].IsStr || ps.Args[1].IsStr || !ps.Args[2].IsStr {
		t.Errorf("print args: %+v", ps.Args)
	}
}

func TestParseCasts(t *testing.T) {
	f := parseOK(t, `int main() { float x = float(3); int y = int(x); return y; }`)
	d := f.Funcs[0].Body.Stmts[0].(*ast.DeclStmt)
	if _, ok := d.Decl.Init.(*ast.CastExpr); !ok {
		t.Errorf("init is %T, want CastExpr", d.Decl.Init)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int main( { return 0; }",
		"int main() { return 0 }",
		"int main() { x = ; }",
		"int 5x() {}",
		"int main() { int a[0]; return 0; }",
	}
	for _, src := range bad {
		if _, err := parseSource("bad.mc", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseLogicalOps(t *testing.T) {
	f := parseOK(t, `int main() { int x = 1 && 0 || 2; return x; }`)
	d := f.Funcs[0].Body.Stmts[0].(*ast.DeclStmt)
	or, ok := d.Decl.Init.(*ast.BinaryExpr)
	if !ok || or.Op != token.OROR {
		t.Fatalf("top should be ||, got %v", d.Decl.Init)
	}
	and, ok := or.X.(*ast.BinaryExpr)
	if !ok || and.Op != token.ANDAND {
		t.Fatalf("lhs should be &&")
	}
}
