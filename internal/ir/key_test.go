package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ast"
)

// refOpdKey and refExprKey are the string redundancy keys the optimizer
// used before OpdKey/ExprKey, kept as the reference the struct keys are
// checked against. Keys compare within one function f, which resolves
// variables.
func refOpdKey(f *Func, o Operand) string {
	switch o.Kind {
	case Temp:
		return fmt.Sprintf("t%d", o.ID)
	case Var:
		v := f.Obj(o)
		return fmt.Sprintf("v%d.%s", v.ID, v.Name)
	case ConstI:
		return fmt.Sprintf("#%d", o.Int)
	case ConstF:
		return fmt.Sprintf("#%g", o.F())
	}
	return "_"
}

func refExprKey(f *Func, i *Instr) string {
	switch i.Kind {
	case BinOp:
		a, b := refOpdKey(f, i.A), refOpdKey(f, i.B)
		if i.Op.IsCommutative() && b < a {
			a, b = b, a
		}
		return fmt.Sprintf("%s %s %s", i.Op, a, b)
	case UnOp:
		return fmt.Sprintf("%s %s", i.Op, refOpdKey(f, i.A))
	case Copy:
		return fmt.Sprintf("copy %s", refOpdKey(f, i.A))
	case Addr:
		return fmt.Sprintf("addr v%d.%s", i.AddrObj.ID, i.AddrObj.Name)
	}
	return ""
}

func refAssignKey(f *Func, i *Instr) string { return refOpdKey(f, i.Dst) + " := " + refExprKey(f, i) }

// keyPool draws operands and instructions of one function from a small
// universe, so random pairs often collide. Its variables are the
// function's locals, numbered densely (two of them share a name, as a
// shadowing local does). It deliberately contains both cases where the
// string keys conflate different values:
//
//   - shadow: two distinct objects with the same ID and name (a global
//     and a local numbered separately), whose addresses are taken;
//   - print-alike constants: an int and a float constant that print the
//     same ("#1" for 1 and 1.0).
type keyPool struct {
	r    *rand.Rand
	fn   *Func
	objs []*ast.Object // the function's locals, then a global shadowing one
}

func newKeyPool(seed int64) *keyPool {
	locals := []*ast.Object{
		{ID: 0, Name: "x"},
		{ID: 1, Name: "y"},
		{ID: 2, Name: "x"}, // an inner x
		{ID: 3, Name: "z"},
	}
	global := &ast.Object{ID: 1, Name: "y", Kind: ast.ObjGlobal} // shadow of local y
	return &keyPool{
		r:    rand.New(rand.NewSource(seed)),
		fn:   &Func{Decl: &ast.FuncDecl{Locals: locals}},
		objs: append(append([]*ast.Object(nil), locals...), global),
	}
}

func (p *keyPool) operand() Operand {
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 10, 2.5, -1, math.Inf(1), math.NaN(), -math.NaN(), 1e21}
	switch p.r.Intn(4) {
	case 0:
		return TempOf(p.r.Intn(4), I)
	case 1:
		return VarOf(p.fn.Decl.Locals[p.r.Intn(len(p.fn.Decl.Locals))])
	case 2:
		return CI(int64(p.r.Intn(5)*3 - 2)) // -2, 1, 4, 7, 10
	}
	return CF(floats[p.r.Intn(len(floats))])
}

func (p *keyPool) instr() *Instr {
	ops := []Op{Add, Mul, Eq, Sub, Lt, Shl}
	in := &Instr{Dst: p.operand()}
	switch p.r.Intn(4) {
	case 0:
		in.Kind, in.Op, in.A, in.B = BinOp, ops[p.r.Intn(len(ops))], p.operand(), p.operand()
	case 1:
		in.Kind, in.Op, in.A = UnOp, []Op{Neg, Not}[p.r.Intn(2)], p.operand()
	case 2:
		in.Kind, in.A = Copy, p.operand()
	default:
		in.Kind, in.AddrObj = Addr, p.objs[p.r.Intn(len(p.objs))]
	}
	return in
}

// conflate rewrites an instruction the way the string keys see it: every
// address-taken object is replaced by the first pool object with its ID
// and name, and every float constant that prints like an int by that int.
// A variable operand stays as it is: within one function, IDs name
// variables one to one. Struct keys of conflated instructions are equal
// exactly when the string keys are.
func (p *keyPool) conflate(in *Instr) *Instr {
	c := in.Clone()
	obj := func(o *ast.Object) *ast.Object {
		for _, q := range p.objs {
			if q.ID == o.ID && q.Name == o.Name {
				return q
			}
		}
		return o
	}
	opd := func(o *Operand) {
		if o.Kind == ConstF {
			if v := math.Trunc(o.F()); v == o.F() && fmt.Sprintf("%g", o.F()) == fmt.Sprintf("%d", int64(v)) {
				*o = CI(int64(v))
			}
		}
	}
	opd(&c.Dst)
	opd(&c.A)
	opd(&c.B)
	if c.AddrObj != nil {
		c.AddrObj = obj(c.AddrObj)
	}
	return c
}

// TestExprKeyMatchesStringReference: equal struct keys imply equal string
// keys; equal string keys imply equal struct keys except where the
// strings conflate shadowing objects or print-alike constants.
func TestExprKeyMatchesStringReference(t *testing.T) {
	p := newKeyPool(1)
	exceptions := 0
	for n := 0; n < 50000; n++ {
		x, y := p.instr(), p.instr()
		for _, c := range []struct {
			name          string
			kx, ky        ExprKey
			refx, refy    string
			conflx, confy ExprKey
		}{
			{"ExprKey", x.ExprKey(), y.ExprKey(), refExprKey(p.fn, x), refExprKey(p.fn, y),
				p.conflate(x).ExprKey(), p.conflate(y).ExprKey()},
			{"AssignKey", x.AssignKey(), y.AssignKey(), refAssignKey(p.fn, x), refAssignKey(p.fn, y),
				p.conflate(x).AssignKey(), p.conflate(y).AssignKey()},
		} {
			if c.kx == c.ky && c.refx != c.refy {
				t.Fatalf("%s: equal struct keys, different strings %q and %q\n%v\n%v", c.name, c.refx, c.refy, x, y)
			}
			if c.refx == c.refy && c.kx != c.ky {
				if c.conflx != c.confy {
					t.Fatalf("%s: equal strings %q, different struct keys, and neither shadowing nor print-alike constants explain it\n%v\n%v",
						c.name, c.refx, x, y)
				}
				exceptions++
			}
		}
	}
	if exceptions == 0 {
		t.Error("the pool never produced a shadowing or print-alike pair; the exceptions went unchecked")
	}
}

// TestExprKeyExceptions names the two cases where the string keys were
// wrong: the struct keys tell these values apart.
func TestExprKeyExceptions(t *testing.T) {
	global, local := &ast.Object{ID: 3, Name: "x"}, &ast.Object{ID: 3, Name: "x"}
	ga := &Instr{Kind: Addr, Dst: TempOf(0, I), AddrObj: global}
	la := &Instr{Kind: Addr, Dst: TempOf(1, I), AddrObj: local}
	if refExprKey(nil, ga) != refExprKey(nil, la) || ga.ExprKey() == la.ExprKey() {
		t.Errorf("shadowing: strings %q/%q, struct keys equal=%v",
			refExprKey(nil, ga), refExprKey(nil, la), ga.ExprKey() == la.ExprKey())
	}
	if refOpdKey(nil, CI(1)) != refOpdKey(nil, CF(1)) || CI(1).Key() == CF(1).Key() {
		t.Errorf("print-alike constants: strings %q/%q, struct keys equal=%v",
			refOpdKey(nil, CI(1)), refOpdKey(nil, CF(1)), CI(1).Key() == CF(1).Key())
	}
}

// TestOperandLayout pins the operand the optimizer copies and hashes in
// every pass: at most 16 bytes and no pointer (a variable is named by its
// ID in the function's locals), a float constant's bits kept whole in Int,
// and the float rules of Same (by value: -0 is +0, a NaN is nothing) and
// Key (by bits: -0 is not +0, every NaN is one key).
func TestOperandLayout(t *testing.T) {
	if n := unsafe.Sizeof(Operand{}); n > 16 {
		t.Errorf("Sizeof(Operand) = %d B, want <= 16", n)
	}
	ot := reflect.TypeOf(Operand{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); hasPointer(f.Type) {
			t.Errorf("Operand.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}

	negZero := math.Copysign(0, -1)
	payload := math.Float64frombits(0x7ff8000000000abc)
	for _, x := range []float64{negZero, payload, 1.5, math.Inf(-1)} {
		if got := CF(x).F(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("CF(%#x).F() = %#x", math.Float64bits(x), math.Float64bits(got))
		}
	}
	if CI(7).F() != 0 || TempOf(3, F).F() != 0 {
		t.Error("F of a non-float operand is not 0")
	}

	if !CF(0).Same(CF(negZero)) {
		t.Error("Same: +0 and -0 differ")
	}
	if CF(payload).Same(CF(payload)) {
		t.Error("Same: a NaN is the same as itself")
	}
	if CF(0).Key() == CF(negZero).Key() {
		t.Error("Key: +0 and -0 share a key")
	}
	if CF(payload).Key() != CF(math.NaN()).Key() || CF(payload).Key() != CF(-payload).Key() {
		t.Error("Key: NaN payloads key apart")
	}
	if CF(1).Key() == CI(1).Key() || TempOf(1, I).Key() == (Operand{Kind: Var, ID: 1}).Key() {
		t.Error("Key: operands of different kinds share a key")
	}
}

// hasPointer reports whether a value of type t holds a pointer the
// garbage collector must scan.
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
