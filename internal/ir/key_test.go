package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ast"
)

// refOpdKey and refExprKey are the string redundancy keys the optimizer
// used before OpdKey/ExprKey, kept as the reference the struct keys are
// checked against.
func refOpdKey(o Operand) string {
	switch o.Kind {
	case Temp:
		return fmt.Sprintf("t%d", o.TID)
	case Var:
		return fmt.Sprintf("v%d.%s", o.Obj.ID, o.Obj.Name)
	case ConstI:
		return fmt.Sprintf("#%d", o.Int)
	case ConstF:
		return fmt.Sprintf("#%g", o.Fl)
	}
	return "_"
}

func refExprKey(i *Instr) string {
	switch i.Kind {
	case BinOp:
		a, b := refOpdKey(i.A), refOpdKey(i.B)
		if i.Op.IsCommutative() && b < a {
			a, b = b, a
		}
		return fmt.Sprintf("%s %s %s", i.Op, a, b)
	case UnOp:
		return fmt.Sprintf("%s %s", i.Op, refOpdKey(i.A))
	case Copy:
		return fmt.Sprintf("copy %s", refOpdKey(i.A))
	case Addr:
		return fmt.Sprintf("addr v%d.%s", i.AddrObj.ID, i.AddrObj.Name)
	}
	return ""
}

func refAssignKey(i *Instr) string { return refOpdKey(i.Dst) + " := " + refExprKey(i) }

// keyPool draws operands and instructions from a small universe, so
// random pairs often collide. It deliberately contains both cases where
// the string keys conflate different values:
//
//   - shadow: two distinct objects with the same ID and name (a global
//     and a local numbered separately);
//   - print-alike constants: an int and a float constant that print the
//     same ("#1" for 1 and 1.0).
type keyPool struct {
	r    *rand.Rand
	objs []*ast.Object
}

func newKeyPool(seed int64) *keyPool {
	return &keyPool{r: rand.New(rand.NewSource(seed)), objs: []*ast.Object{
		{ID: 1, Name: "x"},
		{ID: 1, Name: "x"}, // shadow of the first
		{ID: 1, Name: "y"},
		{ID: 2, Name: "x"},
		{ID: 12, Name: "x"},
	}}
}

func (p *keyPool) operand() Operand {
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 10, 2.5, -1, math.Inf(1), math.NaN(), -math.NaN(), 1e21}
	switch p.r.Intn(4) {
	case 0:
		return TempOf(p.r.Intn(4), I)
	case 1:
		return VarOf(p.objs[p.r.Intn(len(p.objs))])
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
// object is replaced by the first pool object with its ID and name, and
// every float constant that prints like an int by that int. Struct keys
// of conflated instructions are equal exactly when the string keys are.
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
		switch o.Kind {
		case Var:
			o.Obj = obj(o.Obj)
		case ConstF:
			if v := math.Trunc(o.Fl); v == o.Fl && fmt.Sprintf("%g", o.Fl) == fmt.Sprintf("%d", int64(v)) {
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
			{"ExprKey", x.ExprKey(), y.ExprKey(), refExprKey(x), refExprKey(y),
				p.conflate(x).ExprKey(), p.conflate(y).ExprKey()},
			{"AssignKey", x.AssignKey(), y.AssignKey(), refAssignKey(x), refAssignKey(y),
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
	if refExprKey(ga) != refExprKey(la) || ga.ExprKey() == la.ExprKey() {
		t.Errorf("shadowing: strings %q/%q, struct keys equal=%v",
			refExprKey(ga), refExprKey(la), ga.ExprKey() == la.ExprKey())
	}
	if refOpdKey(CI(1)) != refOpdKey(CF(1)) || CI(1).Key() == CF(1).Key() {
		t.Errorf("print-alike constants: strings %q/%q, struct keys equal=%v",
			refOpdKey(CI(1)), refOpdKey(CF(1)), CI(1).Key() == CF(1).Key())
	}
}
