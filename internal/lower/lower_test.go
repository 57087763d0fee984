package lower

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/sem"
)

func lowerSrc(t *testing.T, src string, o opt.Options) *mach.Program {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog := ir.Build(p)
	mp := NewProgram(prog)
	for _, f := range prog.Funcs {
		opt.RunFunc(f, o)
		mp.Funcs = append(mp.Funcs, LowerFunc(f))
	}
	return mp
}

func TestAnnotationTransfer(t *testing.T) {
	// PDCE+DCE produce sunk annotations and dead markers at the IR level;
	// lowering must carry them onto machine instructions (§3).
	src := `
int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) { r = x; }
	return r + a;
}
int main() { return g(1, 2, 3); }
`
	mp := lowerSrc(t, src, opt.Options{PDCE: true, DCE: true})
	f := mp.LookupFunc("g")
	sunk, markers := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Sunk {
				sunk++
			}
			if in.Op == mach.MARKDEAD {
				markers++
				if f.Obj(in.MarkObj()) == nil {
					t.Error("marker lost its variable")
				}
			}
		}
	}
	if sunk == 0 {
		t.Error("sunk annotation lost in lowering")
	}
	if markers == 0 {
		t.Error("dead marker lost in lowering")
	}
}

func TestVarTagging(t *testing.T) {
	src := `
int main() {
	int x = 1;
	int y = x + 2;
	print(y);
	return y;
}
`
	mp := lowerSrc(t, src, opt.O0())
	f := mp.LookupFunc("main")
	defTagged := map[string]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if v := f.Obj(in.DefObj); v != nil {
				defTagged[v.Name] = true
			}
		}
	}
	for _, v := range []string{"x", "y"} {
		if !defTagged[v] {
			t.Errorf("%s has no DefObj tag", v)
		}
	}
}

func TestStmtAndOrigPreserved(t *testing.T) {
	src := `int main() { int a = 1; int b = a + 2; return b; }`
	mp := lowerSrc(t, src, opt.O0())
	f := mp.LookupFunc("main")
	stmts := map[int32]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Stmt >= 0 {
				stmts[in.Stmt] = true
			}
		}
	}
	for s := int32(0); s < 3; s++ {
		if !stmts[s] {
			t.Errorf("statement %d lost in lowering", s)
		}
	}
}

func TestFrameLayout(t *testing.T) {
	src := `
int main() {
	int a[10];
	float f[5];
	int x = 3;
	int *p = &x;
	a[0] = *p;
	f[0] = 1.0;
	return a[0];
}
`
	mp := lowerSrc(t, src, opt.O0())
	f := mp.LookupFunc("main")
	if len(f.FrameOff) != len(f.Decl.Locals) {
		t.Fatalf("%d frame offsets for %d locals", len(f.FrameOff), len(f.Decl.Locals))
	}
	var inFrame []string
	for id, off := range f.FrameOff {
		if off >= 0 {
			inFrame = append(inFrame, f.Decl.Locals[id].Name)
		}
	}
	if len(inFrame) != 3 { // a, f, x (addressed)
		t.Fatalf("frame objects: %v", inFrame)
	}
	want := int64(10*4 + 5*4 + 4)
	if f.FrameSize != want {
		t.Errorf("frame size = %d, want %d", f.FrameSize, want)
	}
	// offsets must be within the frame and ascend with object IDs, which
	// also makes them distinct
	prev := int64(-1)
	for id, off := range f.FrameOff {
		if off < 0 {
			continue
		}
		if off >= f.FrameSize || off <= prev {
			t.Errorf("%s at offset %d: outside the frame or not after %d", f.Decl.Locals[id].Name, off, prev)
		}
		prev = off
	}
}

func TestGlobalLayout(t *testing.T) {
	src := `
int a = 1;
float b = 2.0;
int c[8];
int main() { return a + c[0]; }
`
	mp := lowerSrc(t, src, opt.O0())
	if mp.GlobalSize != 4+4+32 {
		t.Errorf("global size = %d", mp.GlobalSize)
	}
	if len(mp.GlobalOff) != 3 {
		t.Errorf("global offsets: %v", mp.GlobalOff)
	}
}

func TestFloatOpcodeSelection(t *testing.T) {
	src := `
int main() {
	float x = 1.5;
	float y = x * 2.0;
	int i = int(y);
	float z = float(i);
	print(z > y);
	return 0;
}
`
	mp := lowerSrc(t, src, opt.O0())
	f := mp.LookupFunc("main")
	ops := map[mach.Opcode]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ops[in.Op] = true
		}
	}
	for _, want := range []mach.Opcode{mach.FMUL, mach.CVTFI, mach.CVTIF, mach.FSGT} {
		if !ops[want] {
			t.Errorf("missing opcode %s\n%s", want, f)
		}
	}
}

func TestVregSpaceMatchesIR(t *testing.T) {
	src := `int main() { int x = 1; int y = 2; return x + y; }`
	mp := lowerSrc(t, src, opt.O0())
	f := mp.LookupFunc("main")
	if f.NumVars != 2 {
		t.Errorf("NumVars = %d", f.NumVars)
	}
	// Variable vregs must be below NumVars.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.DefObj != 0 {
				if d := in.Def(); d.IsReg() && int(d.R) >= f.NumVars {
					t.Errorf("var %s assigned vreg %d >= NumVars", f.ObjName(in.DefObj), d.R)
				}
			}
		}
	}
}
