package ir

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Interp is a direct IR interpreter. It is used for differential testing of
// the optimizer (unoptimized and optimized IR must print the same output)
// and by examples that want program results without lowering to machine
// code. The debugger proper runs on the machine-level simulator instead.
type Interp struct {
	prog *Program
	out  *strings.Builder

	globals map[*ast.Object]*memObj
	steps   int
	// MaxSteps bounds execution to catch runaway loops in tests.
	MaxSteps int
}

// memObj is a memory-allocated object (global, array, addressed local, or
// aggregate). Arrays and scalars are homogeneous (isF selects the plane);
// structs may mix int and float fields, so they carry a per-slot flag.
type memObj struct {
	words []int64
	fls   []float64
	isF   bool
	slotF []bool // non-nil for structs: per-slot float flag
}

func newMemObj(o *ast.Object) *memObj {
	if st, ok := o.Type.(*ast.StructType); ok {
		n := len(st.Fields)
		m := &memObj{words: make([]int64, n), fls: make([]float64, n), slotF: make([]bool, n)}
		for i, f := range st.Fields {
			m.slotF[i] = ast.IsFloat(f.Type)
		}
		return m
	}
	n := 1
	elemF := ast.IsFloat(o.Type)
	if a, ok := o.Type.(*ast.ArrayType); ok {
		n = a.Len
		elemF = ast.IsFloat(a.Elem)
	}
	m := &memObj{isF: elemF}
	if elemF {
		m.fls = make([]float64, n)
	} else {
		m.words = make([]int64, n)
	}
	return m
}

// value is one runtime value: an int word or a float.
type value struct {
	i   int64
	f   float64
	isF bool
	// addr: pointer values reference a memObj plus byte offset.
	obj *memObj
	off int64
}

func iv(x int64) value   { return value{i: int64(int32(x))} }
func fv(x float64) value { return value{f: x, isF: true} }

// frame is one activation record.
type frame struct {
	vars   []value // promoted variable values, by Object.ID
	temps  []value // temp values, by number
	locals map[*ast.Object]*memObj
}

// NewInterp prepares an interpreter for prog.
func NewInterp(prog *Program) *Interp {
	ip := &Interp{
		prog:     prog,
		out:      &strings.Builder{},
		globals:  map[*ast.Object]*memObj{},
		MaxSteps: 50_000_000,
	}
	for _, g := range prog.Globals {
		m := newMemObj(g)
		if init := prog.GlobalInit[g.ID]; init.Kind != NoOpd {
			if m.isF {
				if init.Kind == ConstF {
					m.fls[0] = init.F()
				} else {
					m.fls[0] = float64(init.Int)
				}
			} else {
				if init.Kind == ConstI {
					m.words[0] = init.Int
				} else {
					m.words[0] = int64(init.F())
				}
			}
		}
		ip.globals[g] = m
	}
	return ip
}

// Run executes main and returns its exit value and the captured output.
func (ip *Interp) Run() (int64, string, error) {
	main := ip.prog.LookupFunc("main")
	if main == nil {
		return 0, "", fmt.Errorf("interp: no main function")
	}
	ret, err := ip.call(main, nil)
	return ret.i, ip.out.String(), err
}

func (ip *Interp) call(f *Func, args []value) (value, error) {
	fr := &frame{
		vars:   make([]value, len(f.Decl.Locals)),
		temps:  make([]value, f.NumTemps),
		locals: map[*ast.Object]*memObj{},
	}
	for _, o := range f.FrameObjects {
		fr.locals[o] = newMemObj(o)
	}

	b := f.Entry
	for {
		var next *Block
		for _, in := range b.Instrs {
			ip.steps++
			if ip.steps > ip.MaxSteps {
				return value{}, fmt.Errorf("interp: step limit exceeded in %s", f.Name)
			}
			switch in.Kind {
			case MarkDead, MarkAvail:
				// debugger markers: no runtime effect

			case GetParam:
				if in.ParamIdx < len(args) {
					fr.set(in.Dst, args[in.ParamIdx])
				}

			case Copy:
				fr.set(in.Dst, fr.get(in.A))

			case BinOp:
				a, bo := fr.get(in.A), fr.get(in.B)
				v, err := evalBin(in.Op, a, bo)
				if err != nil {
					return value{}, fmt.Errorf("%s: %w", f.Name, err)
				}
				fr.set(in.Dst, v)

			case UnOp:
				v, err := evalUn(in.Op, fr.get(in.A))
				if err != nil {
					return value{}, err
				}
				fr.set(in.Dst, v)

			case Addr:
				m := fr.locals[in.AddrObj]
				if m == nil {
					m = ip.globals[in.AddrObj]
				}
				if m == nil {
					return value{}, fmt.Errorf("interp: address of unknown object %s", in.AddrObj.Name)
				}
				fr.set(in.Dst, value{obj: m})

			case Load:
				p := fr.get(in.A)
				v, err := loadMem(p, in.Off)
				if err != nil {
					return value{}, fmt.Errorf("%s (stmt %d): %w", f.Name, in.Stmt, err)
				}
				fr.set(in.Dst, v)

			case Store:
				p := fr.get(in.A)
				if err := storeMem(p, in.Off, fr.get(in.B)); err != nil {
					return value{}, fmt.Errorf("%s (stmt %d): %w", f.Name, in.Stmt, err)
				}

			case Call:
				callee := ip.prog.LookupFunc(in.Callee)
				if callee == nil {
					return value{}, fmt.Errorf("interp: call of unknown function %q", in.Callee)
				}
				var as []value
				for _, a := range in.Args {
					as = append(as, fr.get(a))
				}
				rv, err := ip.call(callee, as)
				if err != nil {
					return value{}, err
				}
				if in.Dst.Valid() {
					fr.set(in.Dst, rv)
				}

			case Print:
				for _, a := range in.PrintFmt {
					if a.IsStr {
						ip.out.WriteString(a.Str)
					} else {
						v := fr.get(a.Val)
						if v.isF {
							fmt.Fprintf(ip.out, "%g", v.f)
						} else if v.obj != nil {
							fmt.Fprintf(ip.out, "<ptr+%d>", v.off)
						} else {
							fmt.Fprintf(ip.out, "%d", v.i)
						}
					}
				}

			case Ret:
				if in.A.Valid() {
					return fr.get(in.A), nil
				}
				return value{}, nil

			case Jmp:
				next = b.Succs[0]

			case Br:
				c := fr.get(in.A)
				taken := c.i != 0 || (c.isF && c.f != 0) || c.obj != nil
				if taken {
					next = b.Succs[0]
				} else {
					next = b.Succs[1]
				}
			}
		}
		if next == nil {
			return value{}, nil // fell off the end (void return)
		}
		b = next
	}
}

func (fr *frame) get(o Operand) value {
	switch o.Kind {
	case ConstI:
		return iv(o.Int)
	case ConstF:
		return fv(o.F())
	case Var:
		return fr.vars[o.ID]
	case Temp:
		return fr.temps[o.ID]
	}
	return value{}
}

func (fr *frame) set(o Operand, v value) {
	switch o.Kind {
	case Var:
		fr.vars[o.ID] = v
	case Temp:
		fr.temps[o.ID] = v
	}
}

func loadMem(p value, off int64) (value, error) {
	if p.obj == nil {
		return value{}, fmt.Errorf("load through non-pointer")
	}
	idx := (p.off + off) / 4
	m := p.obj
	if m.slotF != nil {
		if idx < 0 || idx >= int64(len(m.slotF)) {
			return value{}, fmt.Errorf("load out of bounds (field %d of %d)", idx, len(m.slotF))
		}
		if m.slotF[idx] {
			return fv(m.fls[idx]), nil
		}
		return iv(m.words[idx]), nil
	}
	if m.isF {
		if idx < 0 || idx >= int64(len(m.fls)) {
			return value{}, fmt.Errorf("load out of bounds (index %d of %d)", idx, len(m.fls))
		}
		return fv(m.fls[idx]), nil
	}
	if idx < 0 || idx >= int64(len(m.words)) {
		return value{}, fmt.Errorf("load out of bounds (index %d of %d)", idx, len(m.words))
	}
	return iv(m.words[idx]), nil
}

func storeMem(p value, off int64, v value) error {
	if p.obj == nil {
		return fmt.Errorf("store through non-pointer")
	}
	idx := (p.off + off) / 4
	m := p.obj
	if m.slotF != nil {
		if idx < 0 || idx >= int64(len(m.slotF)) {
			return fmt.Errorf("store out of bounds (field %d of %d)", idx, len(m.slotF))
		}
		if m.slotF[idx] {
			x := v.f
			if !v.isF {
				x = float64(v.i)
			}
			m.fls[idx] = x
			return nil
		}
		if v.obj != nil {
			return fmt.Errorf("store of pointer into memory is not supported by the IR interpreter")
		}
		x := v.i
		if v.isF {
			x = int64(v.f)
		}
		m.words[idx] = int64(int32(x))
		return nil
	}
	if m.isF {
		if idx < 0 || idx >= int64(len(m.fls)) {
			return fmt.Errorf("store out of bounds (index %d of %d)", idx, len(m.fls))
		}
		x := v.f
		if !v.isF {
			x = float64(v.i)
		}
		m.fls[idx] = x
		return nil
	}
	if idx < 0 || idx >= int64(len(m.words)) {
		return fmt.Errorf("store out of bounds (index %d of %d)", idx, len(m.words))
	}
	if v.obj != nil {
		return fmt.Errorf("store of pointer into memory is not supported by the IR interpreter")
	}
	x := v.i
	if v.isF {
		x = int64(v.f)
	}
	m.words[idx] = int64(int32(x))
	return nil
}

func evalBin(op Op, a, b value) (value, error) {
	// Pointer arithmetic: ptr ± int adjusts the offset.
	if a.obj != nil || b.obj != nil {
		switch op {
		case Add:
			if a.obj != nil && b.obj == nil {
				return value{obj: a.obj, off: a.off + b.i}, nil
			}
			if b.obj != nil && a.obj == nil {
				return value{obj: b.obj, off: b.off + a.i}, nil
			}
		case Sub:
			if a.obj != nil && b.obj == nil {
				return value{obj: a.obj, off: a.off - b.i}, nil
			}
			if a.obj != nil && b.obj != nil && a.obj == b.obj {
				return iv(a.off - b.off), nil
			}
		case Eq:
			return iv(b2i(a.obj == b.obj && a.off == b.off)), nil
		case Ne:
			return iv(b2i(!(a.obj == b.obj && a.off == b.off))), nil
		case Lt:
			return iv(b2i(a.off < b.off)), nil
		case Le:
			return iv(b2i(a.off <= b.off)), nil
		case Gt:
			return iv(b2i(a.off > b.off)), nil
		case Ge:
			return iv(b2i(a.off >= b.off)), nil
		}
		return value{}, fmt.Errorf("interp: bad pointer arithmetic %s", op)
	}
	if a.isF || b.isF {
		x, y := a.f, b.f
		if !a.isF {
			x = float64(a.i)
		}
		if !b.isF {
			y = float64(b.i)
		}
		switch op {
		case Add:
			return fv(x + y), nil
		case Sub:
			return fv(x - y), nil
		case Mul:
			return fv(x * y), nil
		case Div:
			if y == 0 {
				return value{}, fmt.Errorf("float division by zero")
			}
			return fv(x / y), nil
		case Eq:
			return iv(b2i(x == y)), nil
		case Ne:
			return iv(b2i(x != y)), nil
		case Lt:
			return iv(b2i(x < y)), nil
		case Le:
			return iv(b2i(x <= y)), nil
		case Gt:
			return iv(b2i(x > y)), nil
		case Ge:
			return iv(b2i(x >= y)), nil
		}
		return value{}, fmt.Errorf("interp: bad float op %s", op)
	}
	x, y := a.i, b.i
	switch op {
	case Add:
		return iv(x + y), nil
	case Sub:
		return iv(x - y), nil
	case Mul:
		return iv(x * y), nil
	case Div:
		if y == 0 {
			return value{}, fmt.Errorf("integer division by zero")
		}
		return iv(x / y), nil
	case Rem:
		if y == 0 {
			return value{}, fmt.Errorf("integer remainder by zero")
		}
		return iv(x % y), nil
	case Shl:
		return iv(x << (uint(y) & 31)), nil
	case Shr:
		return iv(x >> (uint(y) & 31)), nil
	case BOr:
		return iv(x | y), nil
	case BXor:
		return iv(x ^ y), nil
	case Eq:
		return iv(b2i(x == y)), nil
	case Ne:
		return iv(b2i(x != y)), nil
	case Lt:
		return iv(b2i(x < y)), nil
	case Le:
		return iv(b2i(x <= y)), nil
	case Gt:
		return iv(b2i(x > y)), nil
	case Ge:
		return iv(b2i(x >= y)), nil
	}
	return value{}, fmt.Errorf("interp: bad int op %s", op)
}

func evalUn(op Op, a value) (value, error) {
	switch op {
	case Neg:
		if a.isF {
			return fv(-a.f), nil
		}
		return iv(-a.i), nil
	case Not:
		t := a.i == 0 && !a.isF && a.obj == nil
		if a.isF {
			t = a.f == 0
		}
		return iv(b2i(t)), nil
	case CvIF:
		return fv(float64(a.i)), nil
	case CvFI:
		return iv(int64(a.f)), nil
	}
	return value{}, fmt.Errorf("interp: bad unary op %s", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
