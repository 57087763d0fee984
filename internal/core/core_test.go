package core

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/opt"
)

// analyze compiles src with cfg and returns the analysis for fn.
func analyze(t *testing.T, src string, cfg compile.Config, fn string) *Analysis {
	t.Helper()
	res, err := compile.Compile("test.mc", src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := res.Mach.LookupFunc(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	return Analyze(f)
}

// classOf returns the classification of variable name at stmt.
func classOf(t *testing.T, a *Analysis, stmt int, name string) Classification {
	t.Helper()
	var obj *ast.Object
	for _, v := range a.Fn.Decl.Locals {
		if v.Name == name {
			obj = v
		}
	}
	if obj == nil {
		t.Fatalf("no variable %s", name)
	}
	c, ok := a.ClassifyAt(stmt, obj)
	if !ok {
		t.Fatalf("statement %d has no location", stmt)
	}
	return c
}

// ---------------------------------------------------------------- figure 2

// TestFigure2Hoisting reproduces the paper's Figure 2: partial redundancy
// elimination hoists x = y+z into the else arm; the join occurrence is
// deleted (redundant copy). x must be suspect at the join statement
// (noncurrent if execution arrived via the hoisted arm, current via the
// other) and current after it.
func TestFigure2Hoisting(t *testing.T) {
	src := `
int f(int c, int y, int z) {
	int x = 0;
	if (c) {
		x = y + z;
	} else {
		x = 1;
	}
	x = y + z;
	return x;
}
int main() { return f(1, 2, 3); }
`
	// Statements: 0:decl x, 1:if, 2:x=y+z(then), 3:x=1(else), 4:x=y+z, 5:return.
	cfg := compile.Config{Opt: opt.Options{PRE: true}}
	a := analyze(t, src, cfg, "f")

	// Sanity: the PRE transformation actually fired.
	hoisted, avail := 0, 0
	for _, b := range a.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Hoisted && in.DefObj != 0 {
				hoisted++
			}
			if in.Op == mach.MARKAVAIL {
				avail++
			}
		}
	}
	if hoisted == 0 || avail == 0 {
		t.Fatalf("PRE did not transform the program (hoisted=%d avail=%d)\n%s", hoisted, avail, a.Fn)
	}

	if c := classOf(t, a, 4, "x"); c.State != Suspect || c.Cause != ByHoisting {
		t.Errorf("at the redundant assignment x should be suspect by hoisting, got %s/%s (%s)",
			c.State, c.Cause, c.Why)
	}
	if c := classOf(t, a, 5, "x"); c.State != Current {
		t.Errorf("after the redundant copy x should be current, got %s (%s)", c.State, c.Why)
	}
	if c := classOf(t, a, 2, "x"); c.State != Current {
		t.Errorf("in the then arm before assignment x should be current, got %s (%s)", c.State, c.Why)
	}
}

// TestFigure2NoncurrentArm forces the Figure 2 "Bkpt1" case: a breakpoint
// inside the arm that received the hoisted assignment, where x is
// definitely noncurrent.
func TestFigure2NoncurrentArm(t *testing.T) {
	src := `
int f(int c, int y, int z) {
	int x = 0;
	int w = 0;
	if (c) {
		x = y + z;
	} else {
		w = 1;
		x = y + z;
	}
	return x + w;
}
int main() { return f(1, 2, 3); }
`
	// Statements: 0:x=0, 1:w=0, 2:if, 3:x=y+z(then), 4:w=1(else),
	// 5:x=y+z(else), 6:return.
	//
	// PRE inserts x=y+z at the top of the else arm? No: availability only
	// becomes partial at the join; within the arms nothing is redundant.
	// This variant instead exercises a *fully* redundant second assignment
	// along one arm once the program is rewritten so that the else arm
	// computes the expression before the breakpoint statement:
	cfg := compile.Config{Opt: opt.Options{PRE: true}}
	a := analyze(t, src, cfg, "f")
	// The else-arm statement w=1 (stmt 4) comes before x=y+z (stmt 5);
	// no hoisting reaches it, so x=0 value is current there.
	if c := classOf(t, a, 4, "w"); c.State != Current {
		t.Errorf("w before its assignment in the arm: got %s (%s)", c.State, c.Why)
	}
}

// ---------------------------------------------------------------- figure 3

// TestFigure3Sinking reproduces the paper's Figure 3: partial dead code
// elimination sinks x's assignment into the branch where it is used. At
// breakpoints between the deleted assignment and the sunk copy x is
// noncurrent (stale); after the sunk copy it is current; at the join it is
// suspect.
func TestFigure3Sinking(t *testing.T) {
	src := `
int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() { return g(1, 3, 4); }
`
	// Statements: 0:x=a*b, 1:r=0, 2:if, 3:r=x, 4:return.
	cfg := compile.Config{Opt: opt.Options{PDCE: true, DCE: true}}
	a := analyze(t, src, cfg, "g")

	sunk, dead := 0, 0
	for _, b := range a.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Sunk {
				sunk++
			}
			if in.Op == mach.MARKDEAD {
				dead++
			}
		}
	}
	if sunk == 0 || dead == 0 {
		t.Fatalf("PDCE did not transform the program (sunk=%d dead=%d)\n%s", sunk, dead, a.Fn)
	}

	if c := classOf(t, a, 1, "x"); c.State != Noncurrent || c.Cause != ByDeadCodeElim {
		t.Errorf("between deletion and sunk copy x should be noncurrent by DCE, got %s/%s (%s)",
			c.State, c.Cause, c.Why)
	}
	if c := classOf(t, a, 3, "x"); c.State != Current {
		t.Errorf("after (at) the sunk copy's statement x should be current, got %s (%s)", c.State, c.Why)
	}
	if c := classOf(t, a, 4, "x"); c.State != Suspect || c.Cause != ByDeadCodeElim {
		t.Errorf("at the join x should be suspect, got %s/%s (%s)", c.State, c.Cause, c.Why)
	}
}

// ---------------------------------------------------------------- figure 4

// TestFigure4Recovery reproduces the paper's Figure 4: assignment
// propagation replaces the uses of x with re-computations of y+z, CSE
// routes them through a temporary, dead code elimination deletes x's
// assignment — and the debugger recovers x's value from the temporary.
func TestFigure4Recovery(t *testing.T) {
	src := `
int h(int y, int z) {
	int x = y + z;
	int a = x + 1;
	int b = x * 2;
	return a + b;
}
int main() { return h(2, 3); }
`
	// Statements: 0:x=y+z, 1:a=x+1, 2:b=x*2, 3:return.
	cfg := compile.Config{Opt: opt.Options{
		AssignProp: true, PRE: true, CopyProp: true, DCE: true,
	}}
	a := analyze(t, src, cfg, "h")

	dead := 0
	for _, b := range a.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mach.MARKDEAD && a.Fn.ObjName(in.MarkObj()) == "x" {
				dead++
			}
		}
	}
	if dead == 0 {
		t.Fatalf("x's assignment was not eliminated\n%s", a.Fn)
	}

	c := classOf(t, a, 2, "x")
	if c.Recovered == nil {
		t.Fatalf("x should be recoverable at stmt 2, got %s (%s)\n%s", c.State, c.Why, a.Fn)
	}
	// The location's classification is still endangered/nonresident (the
	// assignment is gone); the recovery rides along so the debugger can
	// display the reconstructed expected value.
	if c.State == Current || c.State == Uninitialized {
		t.Errorf("recovered x should keep its underlying classification, got %s", c.State)
	}
}

// TestConstantRecovery checks the "special constant residence" of §2.5: a
// dead assignment of a constant is recoverable as that constant.
func TestConstantRecovery(t *testing.T) {
	src := `
int main() {
	int x = 5;
	int y = 1;
	x = y + 6;
	return x;
}
`
	// Statements: 0:x=5, 1:y=1, 2:x=y+6, 3:return.
	cfg := compile.Config{Opt: opt.Options{DCE: true}}
	a := analyze(t, src, cfg, "main")
	c := classOf(t, a, 1, "x")
	if c.Recovered == nil || c.Recovered.Kind != RecoverConst || c.Recovered.C != 5 {
		t.Fatalf("x should recover as constant 5, got %s (%+v) (%s)\n%s",
			c.State, c.Recovered, c.Why, a.Fn)
	}
}

// ---------------------------------------------------------------- figure 1

// TestSourceAttribution checks that endangered classifications name the
// responsible source assignment (the paper's "additional information about
// V ... the source assignment expression(s)").
func TestSourceAttribution(t *testing.T) {
	src := `
int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() { return g(1, 3, 4); }
`
	cfg := compile.Config{Opt: opt.Options{PDCE: true, DCE: true}}
	a := analyze(t, src, cfg, "g")
	c := classOf(t, a, 1, "x")
	if c.State != Noncurrent {
		t.Fatalf("setup: x should be noncurrent, got %s", c.State)
	}
	if len(c.SrcStmts) != 1 || c.SrcStmts[0] != 0 {
		t.Errorf("SrcStmts = %v, want [0] (the eliminated x = a*b)", c.SrcStmts)
	}
}

// TestSourceAttributionSupersede: a newer elimination supersedes an older
// one in the attribution.
func TestSourceAttributionSupersede(t *testing.T) {
	src := `
int main() {
	int x = 5;
	int y = 1;
	x = y + 2;
	int z = y * 3;
	print(z);
	return 0;
}
`
	// Both assignments to x are dead (x never used): two markers. At the
	// print statement only the LATER one should be blamed.
	cfg := compile.Config{Opt: opt.Options{DCE: true}}
	a := analyze(t, src, cfg, "main")
	c := classOf(t, a, 4, "x") // print statement
	if c.State != Noncurrent && c.Recovered == nil {
		t.Fatalf("x should be endangered (possibly recovered), got %s", c.State)
	}
	for _, s := range c.SrcStmts {
		if s == 0 {
			t.Errorf("stale attribution: statement 0 superseded by statement 2 (got %v)", c.SrcStmts)
		}
	}
}

// TestUninitialized checks the first diamond of Figure 1.
func TestUninitialized(t *testing.T) {
	src := `
int main() {
	int x;
	int y = 2;
	x = y * 2;
	return x;
}
`
	// Statements: 0:decl x (no code), 1:y=2, 2:x=y*2, 3:return.
	a := analyze(t, src, compile.O0(), "main")
	if c := classOf(t, a, 1, "x"); c.State != Uninitialized {
		t.Errorf("x before any assignment should be uninitialized, got %s", c.State)
	}
	if c := classOf(t, a, 3, "x"); c.State != Current {
		t.Errorf("x after assignment should be current, got %s (%s)", c.State, c.Why)
	}
}

// TestNonresident checks that register reuse after a variable's last use
// makes it nonresident under the conservative live-range model.
func TestNonresident(t *testing.T) {
	src := `
int m(int a, int b) {
	int x = a * b;
	int y = x + 1;
	int z = y * y;
	return z;
}
int main() { return m(2, 3); }
`
	// Statements: 0:x=a*b, 1:y=x+1, 2:z=y*y, 3:return.
	cfg := compile.Config{RegAlloc: true} // no optimization, just allocation
	a := analyze(t, src, cfg, "m")
	if !a.Fn.Allocated {
		t.Fatal("function not allocated")
	}
	c := classOf(t, a, 3, "x")
	if c.State != Nonresident {
		t.Errorf("x after its last use should be nonresident (register reused), got %s (%s)\n%s",
			c.State, c.Why, a.Fn)
	}
	// And before its last use it is resident and current.
	if c := classOf(t, a, 1, "x"); c.State != Current {
		t.Errorf("x at its use should be current, got %s (%s)", c.State, c.Why)
	}
}

// TestNoRegallocNoNonresident mirrors the paper's Figure 5(a) setup:
// without register allocation, nonresident variables cannot occur.
func TestNoRegallocNoNonresident(t *testing.T) {
	src := `
int m(int a, int b) {
	int x = a * b;
	int y = x + 1;
	int z = y * y;
	return z;
}
int main() { return m(2, 3); }
`
	a := analyze(t, src, compile.O2NoRegAlloc(), "m")
	for s := 0; s < a.Fn.Decl.NumStmts; s++ {
		if _, ok := a.Table.LocOf(s); !ok {
			continue
		}
		for _, id := range a.Table.VarsInScope(s) {
			v := a.Fn.Decl.Locals[id]
			c, _ := a.ClassifyAt(s, v)
			if c.State == Nonresident {
				t.Errorf("stmt %d: %s nonresident without register allocation", s, v.Name)
			}
		}
	}
}

// TestMarkersMatter is the ablation: without markers the classifier loses
// the dead-reach information and wrongly reports a stale variable current.
func TestMarkersMatter(t *testing.T) {
	src := `
int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() { return g(1, 3, 4); }
`
	with := analyze(t, src, compile.Config{Opt: opt.Options{PDCE: true, DCE: true}}, "g")
	without := analyze(t, src, compile.Config{Opt: opt.Options{PDCE: true, DCE: true, NoMarkers: true}}, "g")

	cw := classOf(t, with, 1, "x")
	co := classOf(t, without, 1, "x")
	if cw.State != Noncurrent {
		t.Errorf("with markers x should be noncurrent, got %s", cw.State)
	}
	if co.State == Noncurrent || co.State == Suspect {
		t.Errorf("ablation: without markers the debugger cannot know x is endangered, got %s", co.State)
	}
}

// TestClassifyAllCounts smoke-tests whole-function classification.
func TestClassifyAllCounts(t *testing.T) {
	src := `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 10; i++) {
		s = s + i;
	}
	print(s);
	return s;
}
`
	a := analyze(t, src, compile.O2(), "main")
	total := 0
	for s := 0; s < a.Fn.Decl.NumStmts; s++ {
		cs, ok := a.ClassifyAllAt(s)
		if !ok {
			continue
		}
		total += len(cs)
	}
	if total == 0 {
		t.Error("no classifications produced")
	}
}
