package regalloc

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/vm"
)

func buildMach(t *testing.T, src string, o opt.Options) *mach.Program {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog := ir.Build(p)
	mp := lower.NewProgram(prog)
	for _, f := range prog.Funcs {
		opt.RunFunc(f, o)
		mp.Funcs = append(mp.Funcs, lower.LowerFunc(f))
	}
	return mp
}

// allocate runs register allocation on every function of mp, in order.
func allocate(mp *mach.Program) error {
	for _, f := range mp.Funcs {
		if err := AllocateFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// fullPipeline compiles, allocates, schedules, and runs, comparing against
// the unoptimized IR interpretation.
func fullPipeline(t *testing.T, src string, o opt.Options, doSched bool) *vm.VM {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	ref := ir.Build(p)
	wantRet, wantOut, err := ir.NewInterp(ref).Run()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}

	mp := buildMach(t, src, o)
	if err := allocate(mp); err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	if doSched {
		for _, f := range mp.Funcs {
			sched.ScheduleFunc(f)
		}
	}
	m, err := vm.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("vm after regalloc: %v\n%s", err, mp)
	}
	if m.ExitValue() != wantRet {
		t.Errorf("exit: got %d want %d\n%s", m.ExitValue(), wantRet, mp)
	}
	if m.Output() != wantOut {
		t.Errorf("output: got %q want %q", m.Output(), wantOut)
	}
	return m
}

const progBig = `
int g = 3;
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
int manyVars(int a, int b, int c, int d) {
	int e = a + b;
	int f = c + d;
	int h = a * c;
	int i = b * d;
	int j = e + f;
	int k = h + i;
	int l = j * k;
	int m = l - e;
	int n = m + f;
	int o = n - h;
	int p = o + i;
	int q = p * 2;
	int r = q - j;
	int s = r + k;
	int t = s - l;
	int u = t + m;
	int v = u - n;
	int w = v + o;
	int x = w - p;
	int y = x + q;
	int z = y - r;
	return z + s + t + u + v + w + x + y;
}
int loops(int n) {
	int total = 0;
	int i;
	int j;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			total += i * j;
		}
	}
	return total;
}
float floats(float a, float b) {
	float c = a * b;
	float d = a + b;
	float e = c - d;
	float f = c * d;
	float h = e + f;
	float i = e - f;
	float j = h * i;
	float k = h + i;
	return j + k + a + b + c + d + e + f;
}
int main() {
	int arr[20];
	int i;
	for (i = 0; i < 20; i++) { arr[i] = i * g; }
	int s = 0;
	for (i = 0; i < 20; i++) { s += arr[i]; }
	print("fib=", fib(12), "\n");
	print("mv=", manyVars(1, 2, 3, 4), "\n");
	print("loops=", loops(7), "\n");
	print("floats=", floats(1.5, 2.5), "\n");
	print("s=", s, "\n");
	return s;
}
`

func TestRegallocO0(t *testing.T)      { fullPipeline(t, progBig, opt.O0(), false) }
func TestRegallocO2(t *testing.T)      { fullPipeline(t, progBig, opt.O2(), false) }
func TestRegallocO2Sched(t *testing.T) { fullPipeline(t, progBig, opt.O2(), true) }

func TestRegallocAssignsLocations(t *testing.T) {
	// Note: at O2 most of manyVars' locals are optimized away entirely
	// (assignment propagation + DCE leave only markers) — which is the
	// paper's point. Location coverage is asserted on unoptimized code.
	mp := buildMach(t, progBig, opt.O0())
	if err := allocate(mp); err != nil {
		t.Fatal(err)
	}
	f := mp.LookupFunc("manyVars")
	if f == nil {
		t.Fatal("missing manyVars")
	}
	if !f.Allocated {
		t.Error("function not marked allocated")
	}
	located := 0
	for _, o := range f.Decl.Locals {
		loc, ok := f.LocOf(o)
		if !ok {
			t.Errorf("no location recorded for %s", o.Name)
			continue
		}
		if loc.Kind != mach.LocNone {
			located++
		}
		if loc.Kind == mach.LocReg {
			if loc.R < 0 || loc.R >= mach.NumIntRegs {
				t.Errorf("%s got out-of-range register %d", o.Name, loc.R)
			}
		}
	}
	if located < 10 {
		t.Errorf("only %d variables located; expected most of manyVars' 26", located)
	}
}

func TestRegallocPhysRegBounds(t *testing.T) {
	mp := buildMach(t, progBig, opt.O2())
	if err := allocate(mp); err != nil {
		t.Fatal(err)
	}
	for _, f := range mp.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				check := func(o mach.Opd) {
					if !o.IsReg() {
						return
					}
					lim := mach.NumIntRegs
					if o.Class == mach.FloatClass {
						lim = mach.NumFloatRegs
					}
					if o.R < 0 || int(o.R) >= lim {
						t.Fatalf("%s: register out of bounds in %s", f.Name, in)
					}
				}
				check(in.Dst)
				check(in.A)
				check(in.B)
				for _, a := range in.Args() {
					check(a)
				}
			}
		}
	}
}

func TestSpilling(t *testing.T) {
	// 40 simultaneously-live ints force spills with 18 registers.
	src := `
int main() {
	int v0 = 1; int v1 = 2; int v2 = 3; int v3 = 4; int v4 = 5;
	int v5 = 6; int v6 = 7; int v7 = 8; int v8 = 9; int v9 = 10;
	int v10 = v0+1; int v11 = v1+1; int v12 = v2+1; int v13 = v3+1;
	int v14 = v4+1; int v15 = v5+1; int v16 = v6+1; int v17 = v7+1;
	int v18 = v8+1; int v19 = v9+1; int v20 = v0+2; int v21 = v1+2;
	int v22 = v2+2; int v23 = v3+2; int v24 = v4+2; int v25 = v5+2;
	int v26 = v6+2; int v27 = v7+2; int v28 = v8+2; int v29 = v9+2;
	print(v0+v1+v2+v3+v4+v5+v6+v7+v8+v9);
	print(" ");
	print(v10+v11+v12+v13+v14+v15+v16+v17+v18+v19);
	print(" ");
	print(v20+v21+v22+v23+v24+v25+v26+v27+v28+v29);
	return v0+v29;
}
`
	m := fullPipeline(t, src, opt.O0(), false)
	if m.Output() != "55 65 75" {
		t.Errorf("output = %q", m.Output())
	}
}

// TestSpillTempsNeverRespilled is randprog seed 1200's main, reduced by
// hand. The call to h0 passes arguments that were already spilled, and
// their reloads all sit just before the call: those spill temps plus the
// values live across the call exceed the 18 integer registers. With the
// ordinary spill cost, color chose a spill temp, and allocation failed
// with "spill temp needs spilling again".
func TestSpillTempsNeverRespilled(t *testing.T) {
	src := `struct S0 { int f0; int f1; int f2; int f3; };
int G1 = 79;
int G2 = 85;
struct S0 GS;
int h0(int p0, int p1, int p2, struct S0 sp) {
	return p0 + sp.f3;
}
int main() {
	int chk = 7;
	int buf[15];
	for (int z = 0; z < 15; z++) { buf[z] = z * 3; }
	struct S0 s10;
	s10.f0 = ((G2 - GS.f0) + (-30 + G2));
	s10.f1 = (G1 + (chk + GS.f2));
	s10.f2 = (G2 + G1);
	s10.f3 = (-7 % (((chk + G1) % 7 + 7) % 7 + 1));
	struct S0 s11;
	s11.f0 = ((GS.f1 + s10.f2) + (-84 + GS.f2));
	s11.f1 = ((G1 + G2) % (((-39 + chk) % 7 + 7) % 7 + 1));
	s11.f2 = G2 * 3;
	struct S0 s12;
	s12.f0 = (s11.f2 + (-74 + G2));
	s12.f1 = ((chk + -58) % (((G1 + s10.f1) % 7 + 7) % 7 + 1));
	s12.f2 = G1;
	s12.f3 = h0(57, G1, GS.f1, GS);
	GS = s12;
	if ((s11.f1 * G2 % 8191) == (s12.f1 % ((GS.f2 % 7 + 7) % 7 + 1)) && (G1 * G2 % 8191) == s11.f2) {
	}
	if ((chk - G2) >= (s12.f0 * GS.f3 % 8191)) {
		s10 = GS;
	}
	for (int z = 0; z < 15; z++) { chk = (chk * 17 + buf[z]) % 65521; }
	chk = (chk * 19 + s10.f0) % 65521;
	chk = (chk * 19 + s10.f1) % 65521;
	chk = (chk * 19 + s10.f2) % 65521;
	chk = (chk * 19 + s10.f3) % 65521;
	chk = (chk * 19 + s11.f0) % 65521;
	chk = (chk * 19 + s11.f1) % 65521;
	chk = (chk * 19 + s11.f2) % 65521;
	return chk % 256;
}
`
	fullPipeline(t, src, opt.O2(), true)
}

func TestSchedulingReducesCycles(t *testing.T) {
	src := `
int main() {
	int a[64];
	int i;
	for (i = 0; i < 64; i++) { a[i] = i; }
	int s = 0;
	int p = 1;
	for (i = 0; i < 64; i++) {
		s = s + a[i] * 3;
		p = p + i * i;
	}
	print(s, " ", p);
	return 0;
}
`
	unsched := fullPipeline(t, src, opt.O2(), false)
	scheduled := fullPipeline(t, src, opt.O2(), true)
	if scheduled.Cycles > unsched.Cycles {
		t.Errorf("scheduling increased cycles: %d -> %d", unsched.Cycles, scheduled.Cycles)
	}
}
