package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// ConstFold performs constant folding and algebraic simplification on every
// instruction, plus local strength reduction of multiplications and
// divisions by powers of two into shifts. It reports whether anything
// changed.
func ConstFold(f *ir.Func) bool {
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
			if v, isInt, ok := evalFF(in.Op, a.Fl, b.Fl); ok {
				if isInt {
					toCopy(in, ir.CI(v))
				} else {
					toCopy(in, ir.CF(a.Fl)) // placeholder, overwritten below
					in.A = foldedF(in.Op, a.Fl, b.Fl)
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
				toCopy(in, ir.CF(-in.A.Fl))
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
				toCopy(in, ir.CI(int64(in.A.Fl)))
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
	return (o.Kind == ir.ConstI && o.Int == 0) || (o.Kind == ir.ConstF && o.Fl == 0)
}

func isOne(o ir.Operand) bool {
	return (o.Kind == ir.ConstI && o.Int == 1) || (o.Kind == ir.ConstF && o.Fl == 1)
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

// ConstProp performs global constant propagation: a use of value X is
// replaced by constant c when the copy "X = c" is available on all paths
// (X not redefined since). It reports whether anything changed.
//
// Constant and copy propagation do not directly endanger variables (§2 of
// the paper): they only replace *uses*; the defining assignments they
// orphan are handled by dead-code elimination, which performs the marker
// bookkeeping.
func ConstProp(f *ir.Func) bool {
	return propagateAvailableCopies(f, true)
}

// CopyProp performs global copy propagation of "X = Y" (Y a temp or
// variable): uses of X become uses of Y where the copy is available. When
// the replaced use is of a *source variable*, the using occurrence is
// re-materialized through a fresh temp annotated ReplacedVar so the
// debugger can later recover X from Y's location (§2.5).
func CopyProp(f *ir.Func) bool {
	return propagateAvailableCopies(f, false)
}

// propagateAvailableCopies implements both propagation passes over the
// available-copies lattice. For constants==true it propagates X=const;
// otherwise X=Y copies.
func propagateAvailableCopies(f *ir.Func, constants bool) bool {
	g, _ := graphOf(f)
	sp := spaceOf(f)

	// Collect candidate copy instructions.
	type cand struct {
		dst int // value index of X
		src ir.Operand
	}
	table := newExprTable()
	var cands []cand
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != ir.Copy || !in.HasDst() {
				continue
			}
			di := sp.indexOf(in.Dst)
			if di < 0 {
				continue
			}
			if constants {
				if !in.A.IsConst() {
					continue
				}
			} else {
				if in.A.Kind != ir.Temp && in.A.Kind != ir.Var {
					continue
				}
			}
			key := in.AssignKey()
			if _, ok := table.lookup(key); !ok {
				table.intern(key, in)
				cands = append(cands, cand{dst: di, src: in.A})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}

	// Availability: gen at the copy, kill at any def of X or (for copies)
	// of Y, and at calls for values calls may change (none here: vars and
	// temps are private to the function, so calls kill nothing).
	nb := table.size()
	gen := make([]*dataflow.BitSet, g.N)
	kill := make([]*dataflow.BitSet, g.N)
	killedBy := map[int][]int{}
	for ci, c := range cands {
		killedBy[c.dst] = append(killedBy[c.dst], ci)
		if si := sp.indexOf(c.src); si >= 0 {
			killedBy[si] = append(killedBy[si], ci)
		}
	}
	for bi, b := range f.Blocks {
		gen[bi] = dataflow.NewBitSet(nb)
		kill[bi] = dataflow.NewBitSet(nb)
		for _, in := range b.Instrs {
			if in.HasDst() {
				if di := sp.indexOf(in.Dst); di >= 0 {
					for _, ci := range killedBy[di] {
						gen[bi].Clear(ci)
						kill[bi].Set(ci)
					}
				}
			}
			if ci, ok := copyCandIndex(table, sp, in, constants); ok {
				gen[bi].Set(ci)
				kill[bi].Clear(ci)
			}
		}
	}
	p := dataflow.Problem{
		Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect, Bits: nb,
		Gen: gen, Kill: kill,
	}
	res := p.Solve()

	// Walk each block with the incoming available set, replacing uses.
	changed := false
	var buf []ir.Operand
	for bi, b := range f.Blocks {
		avail := res.In[bi].Copy()
		for _, in := range b.Instrs {
			// Replace uses whose source value has an available copy.
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				ui := sp.indexOf(u)
				if ui < 0 {
					continue
				}
				for ci, c := range cands {
					if c.dst != ui || !avail.Has(ci) {
						continue
					}
					if in.ReplaceUses(u, c.src) > 0 {
						changed = true
					}
					break
				}
			}
			// Transfer function.
			if in.HasDst() {
				if di := sp.indexOf(in.Dst); di >= 0 {
					for _, ci := range killedBy[di] {
						avail.Clear(ci)
					}
				}
			}
			if ci, ok := copyCandIndex(table, sp, in, constants); ok {
				avail.Set(ci)
			}
		}
	}
	return changed
}

func copyCandIndex(t *exprTable, sp valueSpace, in *ir.Instr, constants bool) (int, bool) {
	if in.Kind != ir.Copy || !in.HasDst() {
		return 0, false
	}
	if sp.indexOf(in.Dst) < 0 {
		return 0, false
	}
	if constants && !in.A.IsConst() {
		return 0, false
	}
	if !constants && in.A.Kind != ir.Temp && in.A.Kind != ir.Var {
		return 0, false
	}
	return t.lookup(in.AssignKey())
}
