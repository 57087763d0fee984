package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// constFold performs constant folding and algebraic simplification on every
// instruction, plus local strength reduction of multiplications and
// divisions by powers of two into shifts. It reports whether anything
// changed.
func constFold(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if foldInstr(in) {
				changed = true
			}
		}
	}
	return changed
}

func isPow2(v int64) (uint, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}

// foldInstr simplifies one instruction in place.
func foldInstr(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp:
		a, b := in.A, in.B
		if a.Kind == ir.ConstI && b.Kind == ir.ConstI {
			if v, ok := evalII(in.Op, a.Int, b.Int); ok {
				toCopy(in, ir.CI(v))
				return true
			}
		}
		if a.Kind == ir.ConstF && b.Kind == ir.ConstF {
			if v, isInt, ok := evalFF(in.Op, a.F(), b.F()); ok {
				if isInt {
					toCopy(in, ir.CI(v))
				} else {
					toCopy(in, ir.CF(a.F())) // placeholder, overwritten below
					in.A = foldedF(in.Op, a.F(), b.F())
				}
				return true
			}
		}
		// Algebraic identities.
		switch in.Op {
		case ir.Add:
			if isZero(a) {
				toCopy(in, b)
				return true
			}
			if isZero(b) {
				toCopy(in, a)
				return true
			}
		case ir.Sub:
			if isZero(b) {
				toCopy(in, a)
				return true
			}
			if a.Same(b) && a.Kind != ir.ConstF {
				toCopy(in, zeroLike(in))
				return true
			}
		case ir.Mul:
			if isOne(a) {
				toCopy(in, b)
				return true
			}
			if isOne(b) {
				toCopy(in, a)
				return true
			}
			if (isZero(a) || isZero(b)) && in.Dst.Ty == ir.I {
				toCopy(in, ir.CI(0))
				return true
			}
			// Strength reduction: x * 2^k -> x << k (integers only).
			if in.Dst.Ty == ir.I {
				if b.Kind == ir.ConstI {
					if k, ok := isPow2(b.Int); ok {
						in.Op, in.B = ir.Shl, ir.CI(int64(k))
						return true
					}
				} else if a.Kind == ir.ConstI {
					if k, ok := isPow2(a.Int); ok {
						in.Op, in.A, in.B = ir.Shl, b, ir.CI(int64(k))
						return true
					}
				}
			}
		case ir.Div:
			if isOne(b) {
				toCopy(in, a)
				return true
			}
		case ir.Shl, ir.Shr:
			if isZero(b) {
				toCopy(in, a)
				return true
			}
		case ir.BOr, ir.BXor:
			if isZero(a) {
				toCopy(in, b)
				return true
			}
			if isZero(b) {
				toCopy(in, a)
				return true
			}
		}

	case ir.UnOp:
		switch in.Op {
		case ir.Neg:
			if in.A.Kind == ir.ConstI {
				toCopy(in, ir.CI(-in.A.Int))
				return true
			}
			if in.A.Kind == ir.ConstF {
				toCopy(in, ir.CF(-in.A.F()))
				return true
			}
		case ir.Not:
			if in.A.Kind == ir.ConstI {
				v := int64(0)
				if in.A.Int == 0 {
					v = 1
				}
				toCopy(in, ir.CI(v))
				return true
			}
		case ir.CvIF:
			if in.A.Kind == ir.ConstI {
				toCopy(in, ir.CF(float64(in.A.Int)))
				return true
			}
		case ir.CvFI:
			if in.A.Kind == ir.ConstF {
				toCopy(in, ir.CI(int64(in.A.F())))
				return true
			}
		}
	}
	return false
}

// toCopy rewrites in into "Dst = v", preserving annotations and statement.
func toCopy(in *ir.Instr, v ir.Operand) {
	in.Kind = ir.Copy
	in.A = v
	in.B = ir.Operand{}
	in.Off = 0
}

func isZero(o ir.Operand) bool {
	return (o.Kind == ir.ConstI && o.Int == 0) || (o.Kind == ir.ConstF && o.F() == 0)
}

func isOne(o ir.Operand) bool {
	return (o.Kind == ir.ConstI && o.Int == 1) || (o.Kind == ir.ConstF && o.F() == 1)
}

func zeroLike(in *ir.Instr) ir.Operand {
	if in.Dst.Ty == ir.F {
		return ir.CF(0)
	}
	return ir.CI(0)
}

func evalII(op ir.Op, a, b int64) (int64, bool) {
	// MiniC integers are 32-bit words; wrap like the target machine.
	w := func(v int64) int64 { return int64(int32(v)) }
	switch op {
	case ir.Add:
		return w(a + b), true
	case ir.Sub:
		return w(a - b), true
	case ir.Mul:
		return w(a * b), true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		return w(a / b), true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		return w(a % b), true
	case ir.Shl:
		return w(a << (uint(b) & 31)), true
	case ir.Shr:
		return w(a >> (uint(b) & 31)), true
	case ir.BOr:
		return w(a | b), true
	case ir.BXor:
		return w(a ^ b), true
	case ir.Eq:
		return b2i(a == b), true
	case ir.Ne:
		return b2i(a != b), true
	case ir.Lt:
		return b2i(a < b), true
	case ir.Le:
		return b2i(a <= b), true
	case ir.Gt:
		return b2i(a > b), true
	case ir.Ge:
		return b2i(a >= b), true
	}
	return 0, false
}

// evalFF evaluates a float-float operation. Comparisons return an int
// result (isInt=true); arithmetic returns isInt=false and the caller uses
// foldedF.
func evalFF(op ir.Op, a, b float64) (int64, bool, bool) {
	switch op {
	case ir.Eq:
		return b2i(a == b), true, true
	case ir.Ne:
		return b2i(a != b), true, true
	case ir.Lt:
		return b2i(a < b), true, true
	case ir.Le:
		return b2i(a <= b), true, true
	case ir.Gt:
		return b2i(a > b), true, true
	case ir.Ge:
		return b2i(a >= b), true, true
	case ir.Add, ir.Sub, ir.Mul:
		return 0, false, true
	case ir.Div:
		if b == 0 {
			return 0, false, false
		}
		return 0, false, true
	}
	return 0, false, false
}

func foldedF(op ir.Op, a, b float64) ir.Operand {
	switch op {
	case ir.Add:
		return ir.CF(a + b)
	case ir.Sub:
		return ir.CF(a - b)
	case ir.Mul:
		return ir.CF(a * b)
	case ir.Div:
		return ir.CF(a / b)
	}
	return ir.CF(0)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------- constprop

// propagateAvailableCopies performs global constant propagation
// (constants==true) or copy propagation (constants==false) over the
// available-copies lattice, and reports whether anything changed.
//
// Constant propagation replaces a use of value X by constant c when the
// copy "X = c" is available on all paths (X not redefined since). Copy
// propagation of "X = Y" (Y a temp or variable) makes uses of X uses of Y
// where the copy is available; when the replaced use is of a *source
// variable*, the using occurrence is re-materialized through a fresh temp
// annotated ReplacedVar so the debugger can later recover X from Y's
// location (§2.5).
//
// Constant and copy propagation do not directly endanger variables (§2 of
// the paper): they only replace *uses*; the defining assignments they
// orphan are handled by dead-code elimination, which performs the marker
// bookkeeping.
func propagateAvailableCopies(ws *workspace, f *ir.Func, constants bool) bool {
	sp := spaceOf(f)

	// Collect candidate copy instructions, keying each once: keys[n] is
	// the candidate index of the n-th instruction in block order, or -1.
	// byDst[x] lists the candidates "X = ..." in ascending order.
	table := ws.exprTable()
	srcs := ws.operands[:0]
	keys := ws.keys[:0]
	byDst := emptyLists(&ws.byValue, sp.size())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ci := -1
			if isCopyCand(sp, in, constants) {
				ci = table.intern(in.AssignKey(), in)
				if ci == len(srcs) {
					srcs = append(srcs, in.A)
					di := sp.indexOf(in.Dst)
					byDst[di] = append(byDst[di], ci)
				}
			}
			keys = append(keys, ci)
		}
	}
	ws.operands, ws.keys = srcs, keys
	if len(srcs) == 0 {
		return false
	}

	// Availability: gen at the copy, kill at any def of X or (for copies)
	// of Y, and at calls for values calls may change (none here: vars and
	// temps are private to the function, so calls kill nothing).
	km := ws.killMap(table.sample, sp, true)
	gen, kill, avail, _ := ws.genKill(f, len(srcs), sp, km, keys)
	res := (&dataflow.Problem{Graph: ws.graphOf(f), Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: len(srcs), Gen: gen, Kill: kill}).SolveIn(&ws.must)

	// Walk each block with the incoming available set, replacing uses.
	changed := false
	n := 0
	for bi, b := range f.Blocks {
		avail.CopyFrom(res.In[bi])
		for _, in := range b.Instrs {
			key := keys[n]
			n++
			// Replace uses whose source value has an available copy; the
			// first available candidate wins.
			replaced := false
			for _, u := range ws.usesOf(in) {
				ui := sp.indexOf(u)
				if ui < 0 {
					continue
				}
				for _, ci := range byDst[ui] {
					if !avail.Has(ci) {
						continue
					}
					if in.ReplaceUses(u, srcs[ci]) > 0 {
						changed, replaced = true, true
					}
					break
				}
			}
			if replaced { // its key may have changed
				key = -1
				if isCopyCand(sp, in, constants) {
					key = table.lookup(in.AssignKey())
				}
			}
			stepAvail(avail, sp, km, in, key)
		}
	}
	return changed
}

// isCopyCand reports whether in is a copy the pass propagates.
func isCopyCand(sp valueSpace, in *ir.Instr, constants bool) bool {
	if in.Kind != ir.Copy || !in.HasDst() || sp.indexOf(in.Dst) < 0 {
		return false
	}
	if constants {
		return in.A.IsConst()
	}
	return in.A.Kind == ir.Temp || in.A.Kind == ir.Var
}
