package mach

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
)

func TestOpdConstructorsAndString(t *testing.T) {
	cases := []struct {
		o    Opd
		want string
	}{
		{R_(3), "r3"},
		{FR(2), "f2"},
		{I_(-7), "-7"},
		{F_(2.5), "2.5"},
		{Opd{}, "_"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.o, got, c.want)
		}
	}
}

// TestOpdSameFloat pins Same's float semantics with a float immediate's
// bits held in Imm: -0 is the same as +0, a NaN is the same as nothing,
// and a float immediate is never the same as an integer one.
func TestOpdSameFloat(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b Opd
		want bool
	}{
		{F_(0), F_(math.Copysign(0, -1)), true},
		{F_(2.5), F_(2.5), true},
		{F_(2.5), F_(-2.5), false},
		{F_(nan), F_(nan), false},
		{F_(1), I_(int64(math.Float64bits(1))), false},
		{I_(3), I_(3), true},
		{R_(1), FR(1), false},
	}
	for _, c := range cases {
		if got := c.a.Same(c.b); got != c.want {
			t.Errorf("%v.Same(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if F_(-1.5).Float() != -1.5 || I_(7).Float() != 0 {
		t.Errorf("Float: %v, %v", F_(-1.5).Float(), I_(7).Float())
	}
}

func TestInstrUsesAndDef(t *testing.T) {
	add := &Instr{Op: ADD, Dst: R_(1), A: R_(2), B: R_(3)}
	uses := add.Uses(nil)
	if len(uses) != 2 || !uses[0].Same(R_(2)) || !uses[1].Same(R_(3)) {
		t.Errorf("add uses = %v", uses)
	}
	if !add.Def().Same(R_(1)) {
		t.Errorf("add def = %v", add.Def())
	}

	sw := &Instr{Op: SW, A: R_(4), B: R_(5)}
	if d := sw.Def(); d.IsReg() {
		t.Errorf("store must not define a register, got %v", d)
	}
	uses = sw.Uses(nil)
	if len(uses) != 2 {
		t.Errorf("store uses = %v", uses)
	}

	swfp := &Instr{Op: SWFP, B: R_(6), Off: 8}
	uses = swfp.Uses(nil)
	if len(uses) != 1 || !uses[0].Same(R_(6)) {
		t.Errorf("swfp uses = %v", uses)
	}

	call := &Instr{Op: CALL, Dst: R_(0), Cold: &Cold{Callee: "f", Args: []Opd{R_(1), I_(5), FR(0)}}}
	uses = call.Uses(nil)
	if len(uses) != 2 { // immediates are not register uses
		t.Errorf("call uses = %v", uses)
	}

	// Marker aliases are diagnostic and must not count as uses.
	mark := &Instr{Op: MARKDEAD, Cold: &Cold{MarkAlias: R_(7)}}
	if len(mark.Uses(nil)) != 0 {
		t.Error("marker alias counted as a use")
	}
}

func TestInstrReplaceReg(t *testing.T) {
	in := &Instr{Op: ADD, Dst: R_(1), A: R_(1), B: R_(2)}
	n := in.ReplaceReg(R_(1), R_(9), false)
	if n != 1 || !in.A.Same(R_(9)) || !in.Dst.Same(R_(1)) {
		t.Errorf("use-only replace: n=%d %v", n, in)
	}
	n = in.ReplaceReg(R_(1), R_(9), true)
	if n != 1 || !in.Dst.Same(R_(9)) {
		t.Errorf("dst replace: n=%d %v", n, in)
	}
	// Float regs with the same number are distinct.
	fi := &Instr{Op: FADD, Dst: FR(1), A: FR(1), B: FR(2)}
	if fi.ReplaceReg(R_(1), R_(5), true) != 0 {
		t.Error("int replacement must not touch float registers")
	}
}

func TestLatencies(t *testing.T) {
	if MUL.Latency() <= ADD.Latency() {
		t.Error("mul should be slower than add")
	}
	if DIV.Latency() <= MUL.Latency() {
		t.Error("div should be slower than mul")
	}
	if MARKDEAD.Latency() != 0 || MARKAVAIL.Latency() != 0 {
		t.Error("markers must be free")
	}
	if LW.Latency() < 2 {
		t.Error("loads should have latency")
	}
}

func TestBlockEditing(t *testing.T) {
	i1 := &Instr{Op: ADD}
	i2 := &Instr{Op: SUB}
	b := &Block{Instrs: []*Instr{i1, i2, &Instr{Op: MUL}}}
	b.RemoveAt(0)
	if b.Instrs[0] != i2 || len(b.Instrs) != 2 {
		t.Errorf("remove: %v", b.Instrs)
	}
}

func TestFuncNewVreg(t *testing.T) {
	f := &Func{NumVregs: 5}
	v := f.NewVreg(FloatClass)
	if v.R != 5 || v.Class != FloatClass || f.NumVregs != 6 {
		t.Errorf("NewVreg: %v, NumVregs=%d", v, f.NumVregs)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: ADD, Dst: R_(1), A: R_(2), B: I_(3), Stmt: -1}, "add r1, r2, 3"},
		{&Instr{Op: MOV, Dst: R_(0), A: I_(7), Stmt: -1}, "mov r0, 7"},
		{&Instr{Op: LW, Dst: R_(1), A: R_(2), Off: 8, Stmt: -1}, "lw r1, 8(r2)"},
		{&Instr{Op: SWFP, B: R_(3), Off: 4, Stmt: -1}, "sw.fp r3, 4(fp)"},
		{&Instr{Op: RET, Stmt: -1}, "ret"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
	// Statement suffix present when tagged.
	in := &Instr{Op: RET, Stmt: 4}
	if !strings.Contains(in.String(), "s4") {
		t.Errorf("missing stmt tag: %q", in.String())
	}
}

// TestInstrLayout pins the instruction and operand sizes the store's byte
// accounting relies on, that Cold is the only pointer an instruction
// holds (source objects are named by ObjRef), and that the cold getters
// of an instruction without a cold record read zero.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 96 {
		t.Errorf("Sizeof(Instr) = %d B, want <= 96", n)
	}
	if n := unsafe.Sizeof(Opd{}); n > 16 {
		t.Errorf("Sizeof(Opd) = %d B, want <= 16", n)
	}
	it := reflect.TypeOf(Instr{})
	for i := 0; i < it.NumField(); i++ {
		if f := it.Field(i); hasPointer(f.Type) != (f.Name == "Cold") {
			t.Errorf("Instr.%s (%s): holds a pointer = %v, want %v", f.Name, f.Type, hasPointer(f.Type), f.Name == "Cold")
		}
	}

	plain := &Instr{Op: ADD, Dst: R_(1), A: R_(2), B: I_(1)}
	if plain.Callee() != "" || plain.Args() != nil || plain.MarkObj() != 0 || plain.Recover() != (Recovery{}) {
		t.Error("cold getters on an instruction without a cold record are not zero")
	}
}

// hasPointer reports whether a value of type t holds a pointer the
// garbage collector must trace.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestObjRefResolve pins the ref numbering (0 none, 2·ID+1 local, 2·ID+2
// global) and that Resolve answers nil, never panics, for a ref past its
// table; instruction strings name objects only through a function.
func TestObjRefResolve(t *testing.T) {
	locals := []*ast.Object{{Name: "a", Kind: ast.ObjParam, ID: 0}, {Name: "b", Kind: ast.ObjLocal, ID: 1}}
	globals := []*ast.Object{{Name: "g", Kind: ast.ObjGlobal, ID: 0}}
	cases := []struct {
		o    *ast.Object
		want ObjRef
	}{{nil, 0}, {locals[0], 1}, {locals[1], 3}, {globals[0], 2}}
	for _, c := range cases {
		r := RefOf(c.o)
		if r != c.want {
			t.Errorf("RefOf(%v) = %d, want %d", c.o, r, c.want)
		}
		if got := Resolve(r, locals, globals); got != c.o {
			t.Errorf("Resolve(%d) = %v, want %v", r, got, c.o)
		}
	}
	for _, r := range []ObjRef{-1, 4, 5, 1 << 30} {
		if o := Resolve(r, locals, globals); o != nil {
			t.Errorf("Resolve(%d) = %v, want nil", r, o)
		}
	}

	f := &Func{Name: "f", Decl: &ast.FuncDecl{Locals: locals}, Globals: globals}
	la := &Instr{Op: LA, Dst: R_(1), Sym: 2, Stmt: -1}
	if got := la.StringIn(f); got != "la r1, g" {
		t.Errorf("StringIn: %q", got)
	}
	if got := la.String(); got != "la r1, global#0" {
		t.Errorf("String: %q", got)
	}
	mark := &Instr{Op: MARKDEAD, Stmt: -1, Cold: &Cold{MarkObj: 3}}
	if got := mark.StringIn(f); got != "-- markdead b" {
		t.Errorf("marker StringIn: %q", got)
	}
	if got := f.ObjName(9); got != "local#4" {
		t.Errorf("ObjName of an unresolvable ref: %q", got)
	}
}
