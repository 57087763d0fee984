package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// strengthReduce performs loop strength reduction, linear function test
// replacement and induction-variable elimination:
//
//   - a basic induction variable i (single in-loop update i = i ± c) with
//     derived computations t = a*i (multiplications or shifts by constants)
//     gets a strength-reduced temporary s maintained incrementally;
//   - derived computations become copies from s;
//   - if possible, the loop exit test on i is rewritten to test s (LFTR),
//     after which i's update often dies and is removed by DCE, leaving the
//     usual MarkDead marker;
//   - the instructions maintaining s carry a Recover annotation
//     (i = (s − b)/a) so the debugger can reconstruct the eliminated
//     source-level induction variable from the runtime value of s (§2.5).
//
// Reports whether anything changed.
func strengthReduce(ws *workspace, f *ir.Func) bool {
	g := ws.graphOf(f)
	loops, _ := dataflow.FindLoopsIn(&ws.loops, g, 0)
	if len(loops) == 0 {
		return false
	}
	sp := spaceOf(f)
	changed := false
	for _, l := range loops {
		if reduceLoop(f, g, sp, l) {
			changed = true
			g = ws.graphOf(f)
		}
	}
	return changed
}

// ivInfo describes a basic induction variable.
type ivInfo struct {
	v      ir.Operand // the variable (Var or Temp)
	update *ir.Instr  // i = i + step
	step   int64
	blk    *ir.Block
	pos    int
}

func reduceLoop(f *ir.Func, g dataflow.Graph, sp valueSpace, l *dataflow.Loop) bool {
	var loopBlocks []int
	for bi := 0; bi < g.N; bi++ {
		if l.In(bi) {
			loopBlocks = append(loopBlocks, bi)
		}
	}

	defCount := map[int]int{}
	for _, bi := range loopBlocks {
		for _, in := range f.Blocks[bi].Instrs {
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					defCount[k]++
				}
			}
		}
	}
	invariant := func(o ir.Operand) bool {
		k := sp.indexOf(o)
		return k < 0 || defCount[k] == 0
	}

	// Find basic IVs: single update "i = i + c" / "i = i - c", integer.
	var ivs []ivInfo
	for _, bi := range loopBlocks {
		b := f.Blocks[bi]
		for pos, in := range b.Instrs {
			if in.Kind != ir.BinOp || in.Dst.Ty != ir.I || !in.HasDst() {
				continue
			}
			k := sp.indexOf(in.Dst)
			if k < 0 || defCount[k] != 1 {
				continue
			}
			var step int64
			ok := false
			switch in.Op {
			case ir.Add:
				if in.A.Same(in.Dst) && in.B.Kind == ir.ConstI {
					step, ok = in.B.Int, true
				} else if in.B.Same(in.Dst) && in.A.Kind == ir.ConstI {
					step, ok = in.A.Int, true
				}
			case ir.Sub:
				if in.A.Same(in.Dst) && in.B.Kind == ir.ConstI {
					step, ok = -in.B.Int, true
				}
			}
			if ok {
				ivs = append(ivs, ivInfo{v: in.Dst, update: in, step: step, blk: b, pos: pos})
			}
		}
	}
	if len(ivs) == 0 {
		return false
	}

	// Preheader: the unique out-of-loop predecessor of the header.
	header := l.Header
	var preheader *ir.Block
	for _, p := range g.Preds[header] {
		if !l.In(p) {
			if preheader != nil {
				return false // multiple entries; skip this loop
			}
			preheader = f.Blocks[p]
		}
	}
	if preheader == nil || len(preheader.Succs) != 1 {
		return false // need a dedicated preheader (LICM creates them)
	}

	changed := false
	for _, iv := range ivs {
		// Collect derived computations t = a*i (mul or shl by constant).
		type derived struct {
			in  *ir.Instr
			a   int64
			blk *ir.Block
		}
		var ders []derived
		for _, bi := range loopBlocks {
			b := f.Blocks[bi]
			for _, in := range b.Instrs {
				if in.Kind != ir.BinOp || !in.HasDst() || in.Dst.Ty != ir.I || in == iv.update {
					continue
				}
				var a int64
				switch in.Op {
				case ir.Mul:
					if in.A.Same(iv.v) && in.B.Kind == ir.ConstI {
						a = in.B.Int
					} else if in.B.Same(iv.v) && in.A.Kind == ir.ConstI {
						a = in.A.Int
					}
				case ir.Shl:
					if in.A.Same(iv.v) && in.B.Kind == ir.ConstI && in.B.Int >= 0 && in.B.Int < 31 {
						a = 1 << uint(in.B.Int)
					}
				}
				if a != 0 {
					ders = append(ders, derived{in: in, a: a, blk: b})
				}
			}
		}
		if len(ders) == 0 {
			continue
		}

		// Group by multiplier a; one strength-reduced temp per group.
		byA := map[int64][]derived{}
		var asOrder []int64
		for _, d := range ders {
			if _, seen := byA[d.a]; !seen {
				asOrder = append(asOrder, d.a)
			}
			byA[d.a] = append(byA[d.a], d)
		}
		for _, a := range asOrder {
			group := byA[a]
			s := f.NewTemp(ir.I)
			rec := &ir.LinRecovery{Var: f.Obj(iv.v), A: a, B: 0}

			// Preheader: s = i * a.
			init := &ir.Instr{
				Kind: ir.BinOp, Op: ir.Mul, Dst: s, A: iv.v, B: ir.CI(a),
				Stmt: -1, OrigIdx: f.NextOrig(),
				Ann: ir.Ann{InsertedBy: "strength"},
			}
			if rec.Var != nil {
				init.Ann.Recover = rec
			}
			preheader.AppendBeforeTerm(init)

			// After the IV update: s = s + a*step.
			bump := &ir.Instr{
				Kind: ir.BinOp, Op: ir.Add, Dst: s, A: s, B: ir.CI(a * iv.step),
				Stmt: iv.update.Stmt, OrigIdx: f.NextOrig(),
				Ann: ir.Ann{InsertedBy: "strength"},
			}
			if rec.Var != nil {
				bump.Ann.Recover = rec
			}
			// Find the update's current position (may have moved).
			for pos, in := range iv.blk.Instrs {
				if in == iv.update {
					iv.blk.InsertBefore(pos+1, bump)
					break
				}
			}

			// Replace derived computations with copies from s.
			for _, d := range group {
				d.in.Kind = ir.Copy
				d.in.Op = 0
				d.in.A = s
				d.in.B = ir.Operand{}
				d.in.Ann.InsertedBy = "strength"
			}
			changed = true

			// LFTR: if the loop's only other uses of i are a single exit
			// test "cond = i REL bound" with invariant bound, rewrite the
			// test in terms of s (a > 0 keeps the direction).
			if a > 0 {
				lftr(f, sp, loopBlocks, iv, s, a, invariant)
			}
		}
	}
	return changed
}

// lftr rewrites a loop test on the induction variable into a test on the
// strength-reduced temp s = a*i, when i's in-loop uses are only the test
// and its own update.
func lftr(f *ir.Func, sp valueSpace, loopBlocks []int, iv ivInfo, s ir.Operand,
	a int64, invariant func(ir.Operand) bool) {

	var test *ir.Instr
	var testBlk *ir.Block
	uses := 0
	var buf []ir.Operand
	for _, bi := range loopBlocks {
		b := f.Blocks[bi]
		for _, in := range b.Instrs {
			if in == iv.update {
				continue
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if !u.Same(iv.v) {
					continue
				}
				uses++
				if in.Kind == ir.BinOp && in.Op.IsCmp() {
					test = in
					testBlk = b
				}
			}
		}
	}
	if uses != 1 || test == nil {
		return
	}
	// test is "cond = i REL bound" or "cond = bound REL i".
	var bound ir.Operand
	ivLeft := false
	if test.A.Same(iv.v) && invariant(test.B) {
		bound, ivLeft = test.B, true
	} else if test.B.Same(iv.v) && invariant(test.A) {
		bound = test.A
	} else {
		return
	}
	// The scaled bound: constants fold immediately; invariant operands get
	// a multiply before the test, which LICM hoists out on a later round.
	var scaled ir.Operand
	if bound.Kind == ir.ConstI {
		scaled = ir.CI(bound.Int * a)
	} else {
		t := f.NewTemp(ir.I)
		mul := &ir.Instr{
			Kind: ir.BinOp, Op: ir.Mul, Dst: t, A: bound, B: ir.CI(a),
			Stmt: test.Stmt, OrigIdx: f.NextOrig(),
			Ann: ir.Ann{InsertedBy: "lftr"},
		}
		// Insert right before the test.
		for pos, in := range testBlk.Instrs {
			if in == test {
				testBlk.InsertBefore(pos, mul)
				break
			}
		}
		scaled = t
	}
	if ivLeft {
		test.A, test.B = s, scaled
	} else {
		test.A, test.B = scaled, s
	}
	test.Ann.InsertedBy = "lftr"
}
