package debuginfo

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/sem"
)

func buildFunc(t *testing.T, src string, o opt.Options, fn string) *mach.Func {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	f := ir.Build(p).LookupFunc(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	opt.RunFunc(f, o)
	return lower.LowerFunc(f)
}

func TestEveryExecutableStmtHasLoc(t *testing.T) {
	src := `
int main() {
	int a = 1;
	int b = a + 2;
	if (a < b) { b = b * 2; }
	print(b);
	return b;
}
`
	f := buildFunc(t, src, opt.O0(), "main")
	tab := Build(f)
	for s := 0; s < f.Decl.NumStmts; s++ {
		if _, ok := tab.LocOf(s); !ok {
			t.Errorf("statement %d has no location", s)
		}
	}
}

func TestDeclWithoutInitFallsForward(t *testing.T) {
	src := `
int main() {
	int x;
	int y = 1;
	x = y;
	return x;
}
`
	f := buildFunc(t, src, opt.O0(), "main")
	tab := Build(f)
	if tab.HasOwnLoc(0) {
		t.Error("a plain declaration generates no code and must not have its own location")
	}
	loc0, ok0 := tab.LocOf(0)
	loc1, ok1 := tab.LocOf(1)
	if !ok0 || !ok1 || loc0 != loc1 {
		t.Errorf("decl should fall forward to the next statement: %v vs %v", loc0, loc1)
	}
}

func TestEliminatedStmtMapsToMarker(t *testing.T) {
	src := `
int main() {
	int x = 5;
	x = 6;
	print(x);
	return 0;
}
`
	f := buildFunc(t, src, opt.Options{DCE: true}, "main")
	tab := Build(f)
	loc, ok := tab.LocOf(0) // x = 5 was deleted
	if !ok {
		t.Fatal("eliminated statement lost its location entirely")
	}
	in := loc.Block.Instrs[loc.Idx]
	if !in.IsMarker() {
		t.Errorf("eliminated statement should map to its marker, got %s", in)
	}
}

func TestOriginalPreferredOverHoisted(t *testing.T) {
	// PRE inserts hoisted copies tagged with the same statement; the
	// breakpoint must map to the original occurrence (or its marker), not
	// the insertion.
	src := `
int f(int c, int y, int z) {
	int x = 0;
	if (c) { x = y + z; } else { x = 1; }
	x = y + z;
	return x;
}
int main() { return f(1, 2, 3); }
`
	f := buildFunc(t, src, opt.Options{PRE: true}, "f")
	tab := Build(f)
	loc, ok := tab.LocOf(4)
	if !ok {
		t.Fatal("stmt 4 lost")
	}
	in := loc.Block.Instrs[loc.Idx]
	if in.Hoisted {
		t.Errorf("breakpoint mapped to a hoisted insertion: %s", in)
	}
}

func TestVarsInScope(t *testing.T) {
	src := `
int f(int p) {
	int a = 1;
	if (p) {
		int b = 2;
		a = b;
	}
	return a;
}
int main() { return f(1); }
`
	f := buildFunc(t, src, opt.O0(), "f")
	tab := Build(f)
	// At statement 0 (int a = 1): p and a in scope, b not.
	names := func(s int) map[string]bool {
		m := map[string]bool{}
		for _, id := range tab.VarsInScope(s) {
			m[f.Decl.Locals[id].Name] = true
		}
		return m
	}
	at0 := names(0)
	if !at0["p"] || !at0["a"] || at0["b"] {
		t.Errorf("scope at stmt 0: %v", at0)
	}
	// Inside the if body (stmt 3: a = b), b is in scope.
	at3 := names(3)
	if !at3["b"] {
		t.Errorf("scope at stmt 3: %v", at3)
	}
	// After the if (return), b is gone.
	at4 := names(4)
	if at4["b"] {
		t.Errorf("scope at stmt 4: %v", at4)
	}
}

func TestStmtOfLoc(t *testing.T) {
	src := `int main() { int a = 1; return a; }`
	f := buildFunc(t, src, opt.O0(), "main")
	tab := Build(f)
	loc, _ := tab.LocOf(1)
	if got := StmtOfLoc(loc); got != 1 {
		t.Errorf("StmtOfLoc = %d, want 1", got)
	}
}
