package opt

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sem"
)

// buildIR compiles source to IR without optimization.
func buildIR(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	return ir.Build(p)
}

// runFuncs runs the pipeline on every function of prog, in order.
func runFuncs(prog *ir.Program, o Options) {
	for _, f := range prog.Funcs {
		RunFunc(f, o)
	}
}

// run interprets the program, failing the test on runtime errors.
func run(t *testing.T, prog *ir.Program) (int64, string) {
	t.Helper()
	ret, out, err := ir.NewInterp(prog).Run()
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, prog)
	}
	return ret, out
}

// differential compiles src twice (O0 and the given options) and checks
// that both produce identical results and output.
func differential(t *testing.T, src string, o Options) (*ir.Program, *ir.Program) {
	t.Helper()
	ref := buildIR(t, src)
	refRet, refOut := run(t, ref)

	prog := buildIR(t, src)
	runFuncs(prog, o)
	gotRet, gotOut := run(t, prog)

	if refRet != gotRet {
		t.Errorf("return value changed: O0=%d opt=%d\n--- optimized IR ---\n%s",
			refRet, gotRet, prog)
	}
	if refOut != gotOut {
		t.Errorf("output changed:\nO0:  %q\nopt: %q\n--- optimized IR ---\n%s",
			refOut, gotOut, prog)
	}
	return ref, prog
}

const progSum = `
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 10; i++) {
		s = s + i;
	}
	print(s);
	return s;
}
`

const progBranchy = `
int pick(int a, int b, int c) {
	int x;
	if (a < b) {
		x = b + c;
	} else {
		x = b + c;
	}
	return x;
}
int main() {
	int r = pick(1, 2, 3) + pick(5, 2, 3);
	print(r);
	return r;
}
`

const progArrays = `
int a[16];
int main() {
	int i;
	for (i = 0; i < 16; i++) {
		a[i] = i * i;
	}
	int s = 0;
	for (i = 0; i < 16; i++) {
		s += a[i];
	}
	print("sum=", s, "\n");
	return s;
}
`

const progFloat = `
float scale(float x, float k) { return x * k + 1.0; }
int main() {
	float acc = 0.0;
	int i;
	for (i = 0; i < 8; i++) {
		acc = acc + scale(float(i), 0.5);
	}
	print(acc);
	return int(acc);
}
`

const progPointers = `
void bump(int *p, int by) { *p = *p + by; }
int main() {
	int x = 10;
	bump(&x, 5);
	int buf[4];
	int i;
	for (i = 0; i < 4; i++) { buf[i] = x + i; }
	int *q = &buf[1];
	print(*q, " ", q[1], "\n");
	return x;
}
`

const progDead = `
int main() {
	int x = 1 + 2;
	int y = x * 3;
	int z = y - 4;
	x = 100;    // previous x dead
	y = x + 1;  // previous y dead through this path
	print(z, " ", y, "\n");
	return 0;
}
`

func TestDifferentialO2(t *testing.T) {
	srcs := map[string]string{
		"sum": progSum, "branchy": progBranchy, "arrays": progArrays,
		"float": progFloat, "pointers": progPointers, "dead": progDead,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) { differential(t, src, O2()) })
	}
}

func TestDifferentialEachPass(t *testing.T) {
	passes := map[string]Options{
		"constfold":  {ConstFold: true},
		"constprop":  {ConstFold: true, ConstProp: true},
		"copyprop":   {CopyProp: true},
		"assignprop": {AssignProp: true},
		"dce":        {DCE: true},
		"pre":        {PRE: true},
		"licm":       {LICM: true},
		"pdce":       {PDCE: true, DCE: true},
		"strength":   {LICM: true, Strength: true, DCE: true},
		"unroll":     {Unroll: true},
		"branchopt":  {ConstFold: true, BranchOpt: true},
	}
	srcs := map[string]string{
		"sum": progSum, "branchy": progBranchy, "arrays": progArrays,
		"float": progFloat, "pointers": progPointers, "dead": progDead,
	}
	for pname, o := range passes {
		for sname, src := range srcs {
			t.Run(pname+"/"+sname, func(t *testing.T) { differential(t, src, o) })
		}
	}
}

func countKind(p *ir.Program, k ir.Kind) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind == k {
					n++
				}
			}
		}
	}
	return n
}

func countInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

func TestDCEInsertsMarkers(t *testing.T) {
	src := `
int main() {
	int x = 5;
	x = 6;       // makes the first assignment dead
	print(x);
	return 0;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{DCE: true})
	if n := countKind(prog, ir.MarkDead); n < 1 {
		t.Errorf("expected a MarkDead marker for the dead assignment, got %d\n%s", n, prog)
	}
}

func TestDCEDoesNotMarkTemps(t *testing.T) {
	src := `
int use(int v) { return v; }
int main() {
	int x = use(1) + use(2);
	print(x);
	return 0;
}
`
	prog := buildIR(t, src)
	before := countKind(prog, ir.MarkDead)
	runFuncs(prog, Options{DCE: true})
	if n := countKind(prog, ir.MarkDead); n != before {
		t.Errorf("no source assignment is dead here; markers went %d -> %d\n%s", before, n, prog)
	}
}

func TestPREEliminatesRedundantAssignment(t *testing.T) {
	// Figure-2-like: x = y+z fully redundant on the join path.
	src := `
int main() {
	int y = 3;
	int z = 4;
	int x = y + z;
	int w = y + z;  // redundant expression
	print(x, " ", w, "\n");
	return 0;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{AssignProp: true, PRE: true, DCE: true, CopyProp: true})
	// After assignment propagation + CSE + DCE the second computation of
	// y+z must not survive as an independent BinOp chain: count adds.
	adds := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind == ir.BinOp && in.Op == ir.Add {
					adds++
				}
			}
		}
	}
	if adds > 1 {
		t.Errorf("redundant add survived: %d adds\n%s", adds, prog)
	}
	// And the program still runs correctly.
	_, out := run(t, prog)
	if out != "7 7\n" {
		t.Errorf("output = %q, want \"7 7\\n\"", out)
	}
}

func TestPREHoistAnnotation(t *testing.T) {
	// Partial redundancy across a diamond: x = y+z on one arm, then again
	// at the join — insertion on the other arm must be annotated Hoisted
	// and the join occurrence must become a MarkAvail marker.
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
int main() {
	print(f(1, 2, 3), " ", f(0, 2, 3), "\n");
	return 0;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{PRE: true})
	f := prog.LookupFunc("f")
	hoisted, avail := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ann.Hoisted && in.Dst.Kind == ir.Var {
				hoisted++
			}
			if in.Kind == ir.MarkAvail {
				avail++
			}
		}
	}
	if hoisted < 1 {
		t.Errorf("expected a hoisted var assignment, got %d\n%s", hoisted, f)
	}
	if avail < 1 {
		t.Errorf("expected a MarkAvail marker for the redundant assignment, got %d\n%s", avail, f)
	}
	// Semantics preserved.
	_, out := run(t, prog)
	if out != "5 5\n" {
		t.Errorf("output = %q, want \"5 5\\n\"", out)
	}
}

func TestPDCESinksPartiallyDead(t *testing.T) {
	// x = a*b is dead on the else path: PDCE should sink it into the then
	// branch and DCE should leave a MarkDead at the original spot.
	src := `
int f(int c, int a, int b) {
	int x = a * b;
	if (c) {
		return x;
	}
	return a;
}
int main() {
	print(f(1, 3, 4), " ", f(0, 3, 4), "\n");
	return 0;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{PDCE: true, DCE: true})
	f := prog.LookupFunc("f")
	sunk, dead := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ann.Sunk {
				sunk++
			}
			if in.Kind == ir.MarkDead {
				dead++
			}
		}
	}
	if sunk < 1 || dead < 1 {
		t.Errorf("expected sunk copy (got %d) and MarkDead (got %d)\n%s", sunk, dead, f)
	}
	_, out := run(t, prog)
	if out != "12 3\n" {
		t.Errorf("output = %q", out)
	}
}

func TestLICMHoistsTemps(t *testing.T) {
	src := `
int a[8];
int main() {
	int i;
	int n = 8;
	for (i = 0; i < n; i++) {
		a[i] = i;
	}
	print(a[3]);
	return 0;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{LICM: true})
	f := prog.LookupFunc("main")
	hoisted := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ann.Hoisted && in.Ann.InsertedBy == "licm" {
				hoisted++
			}
		}
	}
	if hoisted < 1 {
		t.Errorf("expected LICM to hoist the address computation\n%s", f)
	}
	_, out := run(t, prog)
	if out != "3" {
		t.Errorf("output = %q", out)
	}
}

func TestStrengthReductionRecovery(t *testing.T) {
	src := `
int a[32];
int main() {
	int i;
	for (i = 0; i < 32; i++) {
		a[i] = i;
	}
	int s = 0;
	for (i = 0; i < 32; i++) {
		s += a[i];
	}
	print(s);
	return s;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, O2())
	f := prog.LookupFunc("main")
	recov := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ann.Recover != nil && in.Ann.Recover.Var != nil {
				recov++
			}
		}
	}
	if recov == 0 {
		t.Logf("note: no linear recovery annotations were generated\n%s", f)
	}
	_, out := run(t, prog)
	if out != "496" {
		t.Errorf("output = %q, want 496", out)
	}
}

func TestUnrollDuplicatesMarkers(t *testing.T) {
	// A dead assignment inside a loop leaves a marker; unrolling after DCE
	// must duplicate the marker along with the block (§3 code duplication).
	src := `
int main() {
	int i;
	int x = 0;
	for (i = 0; i < 4; i++) {
		x = i;      // dead: overwritten below before any use
		x = i + 1;
	}
	print(x);
	return 0;
}
`
	prog := buildIR(t, src)
	for _, f := range prog.Funcs {
		DCE(f)
	}
	before := countKind(prog, ir.MarkDead)
	if before == 0 {
		t.Fatalf("setup: expected a dead marker before unrolling\n%s", prog)
	}
	for _, f := range prog.Funcs {
		Unroll(f)
	}
	after := countKind(prog, ir.MarkDead)
	if after <= before {
		t.Errorf("unrolling should duplicate markers: before=%d after=%d", before, after)
	}
	_, out := run(t, prog)
	if out != "4" {
		t.Errorf("output = %q", out)
	}
}

func TestBranchOptFoldsConstantBranches(t *testing.T) {
	src := `
int main() {
	int x;
	if (1 < 2) { x = 10; } else { x = 20; }
	print(x);
	return x;
}
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{ConstFold: true, ConstProp: true, BranchOpt: true})
	f := prog.LookupFunc("main")
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil && tm.Kind == ir.Br {
			t.Errorf("constant branch not folded\n%s", f)
		}
	}
	_, out := run(t, prog)
	if out != "10" {
		t.Errorf("output = %q", out)
	}
}

func TestO2ShrinksHotLoops(t *testing.T) {
	prog := buildIR(t, progArrays)
	n0 := countInstrs(prog)
	runFuncs(prog, O2())
	_, out := run(t, prog)
	if !strings.Contains(out, "sum=1240") {
		t.Errorf("optimized program output %q", out)
	}
	// Size may grow from unrolling; just ensure the pipeline terminated
	// and produced a sane program.
	if countInstrs(prog) == 0 || n0 == 0 {
		t.Fatal("empty program")
	}
}

func TestNoMarkersAblation(t *testing.T) {
	prog := buildIR(t, progDead)
	o := O2()
	o.NoMarkers = true
	runFuncs(prog, o)
	if n := countKind(prog, ir.MarkDead) + countKind(prog, ir.MarkAvail); n != 0 {
		t.Errorf("NoMarkers left %d markers", n)
	}
}
