// Package lower performs code selection from the mid-level IR to the
// machine-level representation. Per §3 of the paper, "during code
// selection, annotations are transferred from nodes in the
// machine-independent IR to the selected instructions" and "IR marker nodes
// are lowered to special marker instructions" — LowerFunc copies Ann, Stmt and
// OrigIdx onto every selected instruction and keeps the IR's dense value
// numbering as the virtual register space, so the debugger can relate
// machine registers back to source variables.
package lower

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/mach"
)

// NewProgram builds the machine program shell for p: the global data
// layout (offsets, total size, initializers) with no functions. Callers
// lower functions individually — concurrently or stitched from a cache —
// and set Funcs in IR order.
func NewProgram(p *ir.Program) *mach.Program {
	mp := &mach.Program{
		Globals:    p.Globals,
		GlobalOff:  make([]int64, len(p.Globals)),
		GlobalInit: p.GlobalInit,
	}
	var off int64
	for i, g := range p.Globals {
		mp.GlobalOff[i] = off
		sz := int64(g.Type.Size())
		if sz == 0 {
			sz = 4
		}
		off += sz
	}
	mp.GlobalSize = off
	return mp
}

// LowerFunc performs code selection for one function. It touches only f,
// so distinct functions may be lowered concurrently.
func LowerFunc(f *ir.Func) *mach.Func {
	numVars := len(f.Decl.Locals)
	mf := &mach.Func{
		Name:     f.Name,
		Decl:     f.Decl,
		Globals:  f.Globals,
		NumVars:  numVars,
		NumVregs: numVars + f.NumTemps,
		FrameOff: make([]int64, numVars),
	}

	// Frame layout: f.FrameObjects are in Decl.Locals order, so offsets
	// ascend with object IDs.
	for i := range mf.FrameOff {
		mf.FrameOff[i] = -1
	}
	var off int64
	for _, o := range f.FrameObjects {
		mf.FrameOff[o.ID] = off
		sz := int64(o.Type.Size())
		if sz == 0 {
			sz = 4
		}
		off += sz
	}
	mf.FrameSize = off

	// Blocks map 1:1.
	blockOf := map[*ir.Block]*mach.Block{}
	for _, b := range f.Blocks {
		blockOf[b] = mf.NewBlock()
	}
	mf.Entry = blockOf[f.Entry]

	for _, b := range f.Blocks {
		mb := blockOf[b]
		for _, in := range b.Instrs {
			m := selectInstr(mf, numVars, in)
			tagVars(mf, m)
			mb.Instrs = append(mb.Instrs, m)
		}
		for _, s := range b.Succs {
			mb.Succs = append(mb.Succs, blockOf[s])
		}
	}
	mf.RecomputePreds()

	// Loop depths for spill heuristics.
	_, depth := dataflow.FindLoops(mf.Graph(), 0)
	for i, b := range mf.Blocks {
		b.LoopDepth = depth[i]
	}
	return mf
}

// tagVars records which source variable the instruction defines while
// the register numbering still identifies it (vregs below NumVars are
// the promoted variables).
func tagVars(mf *mach.Func, m *mach.Instr) {
	if d := m.Def(); d.Kind == mach.Reg && int(d.R) < mf.NumVars {
		m.DefObj = mach.RefOf(mf.Decl.Locals[d.R])
	}
}

// opd converts an IR operand to a machine operand under the shared value
// numbering (vars first, temps after).
func opd(numVars int, o ir.Operand) mach.Opd {
	switch o.Kind {
	case ir.Var:
		cls := mach.IntClass
		if o.Ty == ir.F {
			cls = mach.FloatClass
		}
		return mach.Opd{Kind: mach.Reg, Class: cls, R: o.ID}
	case ir.Temp:
		cls := mach.IntClass
		if o.Ty == ir.F {
			cls = mach.FloatClass
		}
		return mach.Opd{Kind: mach.Reg, Class: cls, R: int32(numVars) + o.ID}
	case ir.ConstI:
		return mach.I_(o.Int)
	case ir.ConstF:
		return mach.F_(o.F())
	}
	return mach.Opd{}
}

var intBin = map[ir.Op]mach.Opcode{
	ir.Add: mach.ADD, ir.Sub: mach.SUB, ir.Mul: mach.MUL, ir.Div: mach.DIV,
	ir.Rem: mach.REM, ir.Shl: mach.SHL, ir.Shr: mach.SHR, ir.BOr: mach.OR,
	ir.BXor: mach.XOR, ir.Eq: mach.SEQ, ir.Ne: mach.SNE, ir.Lt: mach.SLT,
	ir.Le: mach.SLE, ir.Gt: mach.SGT, ir.Ge: mach.SGE,
}

var floatBin = map[ir.Op]mach.Opcode{
	ir.Add: mach.FADD, ir.Sub: mach.FSUB, ir.Mul: mach.FMUL, ir.Div: mach.FDIV,
	ir.Eq: mach.FSEQ, ir.Ne: mach.FSNE, ir.Lt: mach.FSLT,
	ir.Le: mach.FSLE, ir.Gt: mach.FSGT, ir.Ge: mach.FSGE,
}

func selectInstr(mf *mach.Func, numVars int, in *ir.Instr) *mach.Instr {
	m := &mach.Instr{
		Stmt: int32(in.Stmt), OrigIdx: int32(in.OrigIdx),
		ReplacedVar: mach.RefOf(in.Ann.ReplacedVar), Hoisted: in.Ann.Hoisted, Sunk: in.Ann.Sunk,
	}
	if in.Ann.InsertedBy != "" || in.Ann.Recover != nil {
		m.Cold = &mach.Cold{InsertedBy: in.Ann.InsertedBy}
		if r := in.Ann.Recover; r != nil {
			m.Cold.Recover = mach.Recovery{Var: mach.RefOf(r.Var), A: r.A, B: r.B}
		}
	}
	switch in.Kind {
	case ir.BinOp:
		isFloat := in.A.Ty == ir.F || in.B.Ty == ir.F
		if isFloat {
			m.Op = floatBin[in.Op]
		} else {
			m.Op = intBin[in.Op]
		}
		if m.Op == mach.NOP {
			panic(fmt.Sprintf("lower: no opcode for %s (float=%v)", in.Op, isFloat))
		}
		m.Dst = opd(numVars, in.Dst)
		m.A = opd(numVars, in.A)
		m.B = opd(numVars, in.B)

	case ir.UnOp:
		switch in.Op {
		case ir.Neg:
			if in.Dst.Ty == ir.F {
				m.Op = mach.FNEG
			} else {
				m.Op = mach.NEG
			}
		case ir.Not:
			m.Op = mach.NOT
		case ir.CvIF:
			m.Op = mach.CVTIF
		case ir.CvFI:
			m.Op = mach.CVTFI
		}
		m.Dst = opd(numVars, in.Dst)
		m.A = opd(numVars, in.A)

	case ir.Copy:
		m.Op = mach.MOV
		m.Dst = opd(numVars, in.Dst)
		m.A = opd(numVars, in.A)

	case ir.Load:
		if in.Dst.Ty == ir.F {
			m.Op = mach.FLW
		} else {
			m.Op = mach.LW
		}
		m.Dst = opd(numVars, in.Dst)
		m.A = opd(numVars, in.A)
		m.Off = in.Off

	case ir.Store:
		if in.B.Ty == ir.F {
			m.Op = mach.FSW
		} else {
			m.Op = mach.SW
		}
		m.A = opd(numVars, in.A)
		m.B = opd(numVars, in.B)
		m.Off = in.Off

	case ir.Addr:
		m.Op = mach.LA
		m.Dst = opd(numVars, in.Dst)
		m.Sym = mach.RefOf(in.AddrObj)

	case ir.Call:
		m.Op = mach.CALL
		c := m.EnsureCold()
		c.Callee = in.Callee
		for _, a := range in.Args {
			c.Args = append(c.Args, opd(numVars, a))
		}
		if in.Dst.Valid() {
			m.Dst = opd(numVars, in.Dst)
		}

	case ir.Print:
		m.Op = mach.PRINT
		if len(in.PrintFmt) > 0 {
			c := m.EnsureCold()
			for _, a := range in.PrintFmt {
				if a.IsStr {
					c.PrintFmt = append(c.PrintFmt, mach.PrintArg{Str: a.Str, IsStr: true})
				} else {
					c.PrintFmt = append(c.PrintFmt, mach.PrintArg{Val: opd(numVars, a.Val)})
				}
			}
		}

	case ir.Ret:
		m.Op = mach.RET
		if in.A.Valid() {
			m.A = opd(numVars, in.A)
		}

	case ir.Jmp:
		m.Op = mach.J

	case ir.Br:
		m.Op = mach.BNEZ
		m.A = opd(numVars, in.A)

	case ir.GetParam:
		m.Op = mach.GETP
		m.Dst = opd(numVars, in.Dst)
		if in.ParamIdx != 0 {
			m.EnsureCold().ParamIdx = int32(in.ParamIdx)
		}

	case ir.MarkDead:
		m.Op = mach.MARKDEAD
		c := m.EnsureCold()
		c.MarkObj = mach.RefOf(in.MarkObj)
		if in.A.Valid() {
			c.MarkAlias = opd(numVars, in.A)
		}

	case ir.MarkAvail:
		m.Op = mach.MARKAVAIL
		m.EnsureCold().MarkObj = mach.RefOf(in.MarkObj)

	default:
		panic(fmt.Sprintf("lower: unknown IR instruction kind %d", in.Kind))
	}
	return m
}
