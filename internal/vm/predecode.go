// Predecoded dispatch: every mach.Func is flattened once into a dense,
// pc-indexed instruction array so the execution hot loop is an array walk
// instead of block-pointer/index chasing. The flattening also bakes in
// everything the per-instruction work would otherwise rediscover on every
// step through the wide mach.Instr:
//
//   - each source operand's kind with its register's slot in the frame
//     slice or its immediate (a float immediate as its bits), the
//     destination's kind and slot, and the addressing offset, so ALU,
//     MOV, load, store, branch and return never read a mach.Opd;
//   - the register uses/def for cycle accounting as ready-time slots (up
//     to two uses inline, CALL and PRINT with more in an overflow slice);
//   - the resolved callee of every CALL as its function index (LookupFunc
//     is a linear scan), the frame or global offset of every LA's symbol
//     (two map lookups), and branch targets as pc values.
//
// Flattening also range-checks every instruction against its function's
// frame: a register past its file, or a spill-slot offset outside the
// frame, would otherwise index another file's ready slot or another
// frame's memory. Such a slot is marked malformed and fails when executed,
// naming the function, as an unknown callee or LA symbol does.
//
// The predecoded form of a mach.Program — cached on the program itself via
// Program.Predecoded — holds one slot per function and is shared by every
// VM that executes it, so a server holding one artifact open across
// thousands of sessions pays the flattening once. A function is flattened
// the first time anything needs it: New (for main), a CALL, BreakSet.Add
// or StepBreakSet. A session that stops early in a freshly decoded
// program flattens only the functions it enters. The slots are published
// with an atomic compare-and-swap, so concurrent sessions share them and
// the fast path is one atomic load; two sessions racing to flatten the
// same function build identical forms, and the loser adopts the winner's.
package vm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mach"
)

// Dispatch opcodes beyond mach's, for dinstr.xop.
const (
	// opMalformed marks a slot whose instruction failed the predecode
	// range check (see checkInstr); executing it is an error.
	opMalformed mach.Opcode = -1 - iota
	// opSlow marks an operand form exec's inline switch does not handle
	// (see inlineForm): it executes through Val.
	opSlow
	// opMovF marks a MOV of a float register or immediate into a float
	// register.
	opMovF
)

// dinstr is one predecoded instruction slot. The fields every step reads
// (cycle accounting, dispatch, the baked operands) come first.
type dinstr struct {
	// Cycle accounting, precomputed from Uses/Def/Latency as indexes into
	// the frame slice's ready times (see funcCode.nInt). u0/u1 are the
	// inline uses, the zero slot when absent; def is the destination's
	// ready slot, or the sink slot when there is none. An instruction with
	// more than two uses (a CALL or PRINT) keeps its uses and then its def
	// in funcCode.uses[useOff:useOff+useN+1] instead, zero and sink inline.
	// cost is the issue slot: 1, or 0 for NOP, the markers, the fall-off
	// sentinel and a malformed slot, which cost nothing.
	u0, u1, def  int32
	useOff, useN int32
	lat, cost    uint8

	// xop is the opcode exec dispatches on (see inlineForm), or
	// opMalformed for a slot that failed checkInstr.
	xop mach.Opcode
	op  mach.Opcode

	// ak/bk/dk are the kinds of the baked operands A, B and Dst (see
	// opdKind); dk is kNone, kIReg or kFReg.
	ak, bk, dk opdKind
	sym        symKind

	// dst is the destination's frame-slice slot when dk is a register kind.
	dst int32

	// a/b are the baked source operands: a register's frame-slice slot, an
	// integer immediate, or a float immediate's bits.
	a, b int64
	// off is the addressing offset of a load or store, or an LA's resolved
	// symbol offset (see sym).
	off int64

	// t0/t1 are branch-target pcs: J goes to t0, BNEZ to t0 when taken and
	// t1 when not.
	t0, t1 int32

	// in is the original machine instruction, nil for the implicit-return
	// sentinel appended after a block that falls off its end without a
	// terminator (the VM treats that as a void return). Execution reads it
	// only for CALL arguments, PRINT, GETP's parameter index and error
	// messages.
	in *mach.Instr

	// callee is the prog.Funcs index of a CALL's target, -1 when the
	// callee does not exist (the error is reported at execution time).
	callee int32
}

// opdKind is the kind of a baked operand.
type opdKind uint8

const (
	kNone opdKind = iota
	kImm          // integer immediate, held in the operand field
	kFImm         // float immediate, its math.Float64bits in the operand field
	kIReg         // int register, its frame-slice slot in the operand field
	kFReg         // float register, its frame-slice slot in the operand field
)

// bake returns o's baked kind and operand field.
func (fc *funcCode) bake(o mach.Opd) (opdKind, int64) {
	switch o.Kind {
	case mach.Reg:
		if o.Class == mach.FloatClass {
			return kFReg, int64(fc.slot(o))
		}
		return kIReg, int64(fc.slot(o))
	case mach.Imm:
		return kImm, o.Imm
	case mach.FImm:
		return kFImm, o.Imm
	}
	return kNone, 0
}

// symKind says where an LA's symbol lives.
type symKind uint8

const (
	symUnknown symKind = iota
	symFrame
	symGlobal
)

// funcCode is the predecoded form of one function.
type funcCode struct {
	fn    *mach.Func
	idx   int32 // index in prog.Funcs, see BreakSet
	code  []dinstr
	uses  []int32 // overflow ready indexes, see dinstr.useOff/useN
	entry int32

	// nInt/nFloat are the function's int and float register counts:
	// NumVregs each, or NumIntRegs/NumFloatRegs once allocated. Each file
	// has one spare slot past them (fileLen). Frame.regs holds the int
	// file at [0, fileLen(nInt)), the float file's bits after it, the ready
	// times of both in the same order (from readyBase), then the zero slot
	// (never written, read for an absent use) and the sink slot (written
	// for an absent def, never read).
	nInt, nFloat int32

	// blocks/idxs map a pc back to the debugger-visible position (the
	// block and index within it). The sentinel pc of a fall-off block maps
	// to idx == len(block.Instrs), exactly where the legacy interpreter's
	// cursor sat when it noticed the fall-off.
	blocks []*mach.Block
	idxs   []int32

	// startOf maps each block to the pc of its first slot, so a
	// debuginfo.Loc{Block, Idx} becomes pc = startOf[Block] + Idx.
	startOf map[*mach.Block]int32

	// stmtMask has one bit per pc, set where the instruction carries a
	// source-statement tag (Stmt >= 0): the stopping points of
	// source-level single-stepping.
	stmtMask []uint64
}

// fileLen is the length of a register file holding n registers.
func fileLen(n int32) int32 { return n + 1 }

// readyBase, zero, sink and frameLen lay out a frame slice (see nInt).
func (fc *funcCode) readyBase() int32 { return fileLen(fc.nInt) + fileLen(fc.nFloat) }
func (fc *funcCode) zero() int32      { return 2 * fc.readyBase() }
func (fc *funcCode) sink() int32      { return fc.zero() + 1 }
func (fc *funcCode) frameLen() int32  { return fc.sink() + 1 }

// slot returns register o's value slot in the frame slice.
func (fc *funcCode) slot(o mach.Opd) int32 {
	if o.Class == mach.FloatClass {
		return fileLen(fc.nInt) + int32(o.R)
	}
	return int32(o.R)
}

// readyOf returns register o's ready-time slot in the frame slice.
func (fc *funcCode) readyOf(o mach.Opd) int32 { return fc.readyBase() + fc.slot(o) }

// progCode is the predecoded form of one program: one slot per function,
// by index in prog.Funcs, nil until the function is first flattened.
type progCode struct {
	prog  *mach.Program
	funcs []atomic.Pointer[funcCode]
}

// predecode builds (or fetches) the shared predecoded form of prog. It
// flattens nothing: see progCode.fn.
func predecode(prog *mach.Program) *progCode {
	return prog.Predecoded(func() any {
		return &progCode{prog: prog, funcs: make([]atomic.Pointer[funcCode], len(prog.Funcs))}
	}).(*progCode)
}

// fn returns the predecoded form of prog.Funcs[i], flattening it on first
// use.
func (p *progCode) fn(i int32) *funcCode {
	if fc := p.funcs[i].Load(); fc != nil {
		return fc
	}
	fc := flatten(p.prog, p.prog.Funcs[i])
	fc.idx = i
	if p.funcs[i].CompareAndSwap(nil, fc) {
		return fc
	}
	return p.funcs[i].Load()
}

// of returns the predecoded form of f, flattening it on first use, or
// false when f is not one of the program's functions.
func (p *progCode) of(f *mach.Func) (*funcCode, bool) {
	for i, g := range p.prog.Funcs {
		if g == f {
			return p.fn(int32(i)), true
		}
	}
	return nil, false
}

// funcIndex returns the index in prog.Funcs of the function LookupFunc
// finds for name, or -1.
func funcIndex(prog *mach.Program, name string) int32 {
	for i, f := range prog.Funcs {
		if f.Name == name {
			return int32(i)
		}
	}
	return -1
}

// flatten lays f's blocks out in order, appending an implicit-return
// sentinel after every block that does not end in a terminator.
func flatten(prog *mach.Program, f *mach.Func) *funcCode {
	f.Load() // a stub read back from the spill tier decodes on first entry
	fc := &funcCode{fn: f, startOf: make(map[*mach.Block]int32, len(f.Blocks))}
	nInt, nFloat := f.NumVregs, f.NumVregs
	if f.Allocated {
		nInt, nFloat = mach.NumIntRegs, mach.NumFloatRegs
	}
	fc.nInt, fc.nFloat = int32(nInt), int32(nFloat)
	slots := 0
	for _, b := range f.Blocks {
		slots += len(b.Instrs)
		if b.Term() == nil {
			slots++
		}
	}
	fc.code = make([]dinstr, 0, slots)
	fc.blocks = make([]*mach.Block, 0, slots)
	fc.idxs = make([]int32, 0, slots)
	for _, b := range f.Blocks {
		fc.startOf[b] = int32(len(fc.code))
		for idx, in := range b.Instrs {
			d := decodeOne(prog, fc, in)
			fc.code = append(fc.code, d)
			fc.blocks = append(fc.blocks, b)
			fc.idxs = append(fc.idxs, int32(idx))
		}
		if b.Term() == nil {
			// Fall-off: executing this slot performs a void return.
			fc.code = append(fc.code, fc.free(dinstr{op: mach.RET, xop: mach.RET}))
			fc.blocks = append(fc.blocks, b)
			fc.idxs = append(fc.idxs, int32(len(b.Instrs)))
		}
	}
	// Branch targets need every block's start pc, so resolve them after
	// the layout pass.
	for i := range fc.code {
		d := &fc.code[i]
		if d.in == nil {
			continue
		}
		switch d.op {
		case mach.J:
			d.t0 = fc.startOf[fc.blocks[i].Succs[0]]
		case mach.BNEZ:
			d.t0 = fc.startOf[fc.blocks[i].Succs[0]]
			d.t1 = fc.startOf[fc.blocks[i].Succs[1]]
		}
	}
	fc.stmtMask = make([]uint64, (len(fc.code)+63)/64)
	for i, d := range fc.code {
		if d.in != nil && d.in.Stmt >= 0 {
			fc.stmtMask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	fc.entry = fc.startOf[f.Entry]
	return fc
}

// free returns d with cycle accounting that costs nothing: no issue slot,
// no uses, and the def in the sink slot.
func (fc *funcCode) free(d dinstr) dinstr {
	d.u0, d.u1, d.def, d.cost = fc.zero(), fc.zero(), fc.sink(), 0
	return d
}

// decodeOne bakes in's operands and cycle-accounting inputs and resolves
// an LA's symbol the way AddrOf does: frame slot first, then global. An
// instruction that fails checkInstr becomes an opMalformed slot.
func decodeOne(prog *mach.Program, fc *funcCode, in *mach.Instr) dinstr {
	if checkInstr(fc, in) != nil {
		return fc.free(dinstr{in: in, op: in.Op, xop: opMalformed})
	}
	d := fc.free(dinstr{in: in, op: in.Op, off: in.Off, callee: -1})
	if in.Op == mach.CALL {
		d.callee = funcIndex(prog, in.Callee())
	}
	d.ak, d.a = fc.bake(in.A)
	d.bk, d.b = fc.bake(in.B)
	var dst int64
	if d.dk, dst = fc.bake(in.Dst); d.dk == kIReg || d.dk == kFReg {
		d.dst = int32(dst)
	} else {
		d.dk = kNone
	}
	if in.Op == mach.LA {
		sym := fc.fn.Obj(in.Sym)
		if off, ok := fc.fn.FrameOffOf(sym); ok {
			d.sym, d.off = symFrame, off
		} else if off, ok := prog.GlobalOffOf(sym); ok {
			d.sym, d.off = symGlobal, off
		}
	}
	d.xop = inlineForm(in.Op, d.ak, d.bk, d.dk)
	if in.Op == mach.NOP || in.IsMarker() {
		return d
	}
	d.cost = 1
	d.lat = uint8(in.Op.Latency())
	if def := in.Def(); def.IsReg() {
		d.def = fc.readyOf(def)
	}
	var buf [8]mach.Opd
	switch uses := in.Uses(buf[:0]); {
	case len(uses) > 2:
		d.useOff, d.useN = int32(len(fc.uses)), int32(len(uses))
		for _, u := range uses {
			fc.uses = append(fc.uses, fc.readyOf(u))
		}
		fc.uses = append(fc.uses, d.def)
		d.def = fc.sink()
	case len(uses) == 2:
		d.u0, d.u1 = fc.readyOf(uses[0]), fc.readyOf(uses[1])
	case len(uses) == 1:
		d.u0 = fc.readyOf(uses[0])
	}
	return d
}

// inlineForm returns the opcode exec dispatches op on, given its operand
// kinds: op (or opMovF) for a form exec's inline switch runs without a
// call, opSlow for one that must go through Val. The inline forms: the
// integer ALU on int registers and immediates; FADD, FSUB, FMUL and the
// float compares on a float register and a float register or immediate;
// MOV into a register of its class; LW, FLW, SW and FSW addressed by an
// int register; BNEZ on an int register.
func inlineForm(op mach.Opcode, ak, bk, dk opdKind) mach.Opcode {
	intB, floatB := bk == kIReg || bk == kImm || bk == kNone, bk == kFReg || bk == kFImm
	ok := true
	switch {
	case mach.ADD <= op && op <= mach.NOT:
		ok = ak == kIReg && intB && dk == kIReg
	case op == mach.FADD || op == mach.FSUB || op == mach.FMUL:
		ok = ak == kFReg && floatB && dk == kFReg
	case mach.FSEQ <= op && op <= mach.FSGE:
		ok = ak == kFReg && floatB && dk == kIReg
	case op == mach.MOV && dk == kFReg && (ak == kFReg || ak == kFImm):
		return opMovF
	case op == mach.MOV:
		ok = dk == kIReg && (ak == kIReg || ak == kImm)
	case op == mach.LW:
		ok = ak == kIReg && dk == kIReg
	case op == mach.FLW:
		ok = ak == kIReg && dk == kFReg
	case op == mach.SW:
		ok = ak == kIReg && (bk == kIReg || bk == kImm)
	case op == mach.FSW:
		ok = ak == kIReg && floatB
	case op == mach.BNEZ:
		ok = ak == kIReg
	}
	if !ok {
		return opSlow
	}
	return op
}

// checkInstr reports why in cannot run in fc's frame: a register it reads
// or writes lies outside [0, NumVregs) (or [0, NumIntRegs) and
// [0, NumFloatRegs) once allocated), or a spill-slot access (LWFP, SWFP,
// FLWFP, FSWFP) lies outside [0, FrameSize).
func checkInstr(fc *funcCode, in *mach.Instr) error {
	var buf [8]mach.Opd
	for _, o := range append(in.Uses(buf[:0]), in.Def()) {
		if !o.IsReg() {
			continue
		}
		file, n := "int", fc.nInt
		if o.Class == mach.FloatClass {
			file, n = "float", fc.nFloat
		}
		if o.R < 0 || o.R >= int32(n) {
			return fmt.Errorf("register %s outside the %s file of %d registers", o, file, n)
		}
	}
	switch in.Op {
	case mach.LWFP, mach.SWFP, mach.FLWFP, mach.FSWFP:
		if in.Off < 0 || in.Off >= fc.fn.FrameSize {
			return fmt.Errorf("frame offset %d outside the %d-byte frame", in.Off, fc.fn.FrameSize)
		}
	}
	return nil
}

// pcOf maps a (block, idx) position to its pc. idx may equal
// len(block.Instrs) only for fall-off blocks (the sentinel slot).
func (fc *funcCode) pcOf(b *mach.Block, idx int) (int32, bool) {
	start, ok := fc.startOf[b]
	if !ok {
		return 0, false
	}
	pc := start + int32(idx)
	if pc < 0 || int(pc) >= len(fc.code) || fc.blocks[pc] != b {
		return 0, false
	}
	return pc, true
}

// BreakSet is a compiled set of stop positions over one program: one bit
// per predecoded pc. The execution fast path tests a single bit before
// each instruction instead of building a Pos and calling a predicate
// closure. A BreakSet is only valid for VMs over the program it was
// compiled for.
type BreakSet struct {
	pc    *progCode
	masks [][]uint64 // by funcCode.idx, nil where nothing is armed

	// stepMode: functions without an explicit mask stop at every
	// statement-boundary instruction (the source-level step rule) instead
	// of never stopping.
	stepMode bool
}

// NewBreakSet returns an empty stop set for the VM's program. Add stop
// positions with Add; pass the set to RunBreaks.
func (vm *VM) NewBreakSet() *BreakSet {
	return &BreakSet{pc: vm.pcode, masks: make([][]uint64, len(vm.Prog.Funcs))}
}

// Add arms a stop at instruction idx of block b in fn. The position must
// exist in the predecoded layout; one that does not is a programming error
// and panics, like an out-of-range index. Every debug-info location is in
// the layout: debuginfo.Build and flatten walk the same blocks and
// instructions.
func (bs *BreakSet) Add(fn *mach.Func, b *mach.Block, idx int) {
	fc, ok := bs.pc.of(fn)
	if !ok {
		panic(fmt.Sprintf("vm: BreakSet.Add: function %s is not in the program", fn.Name))
	}
	pc, ok := fc.pcOf(b, idx)
	if !ok {
		panic(fmt.Sprintf("vm: BreakSet.Add: position b%d[%d] is outside %s's layout", b.ID, idx, fn.Name))
	}
	m := bs.masks[fc.idx]
	if m == nil {
		m = make([]uint64, len(fc.stmtMask))
		bs.masks[fc.idx] = m
	}
	m[pc>>6] |= 1 << (uint(pc) & 63)
}

// mask returns fc's stop bitmap, or nil when execution never stops in fc
// or bs is nil.
func (bs *BreakSet) mask(fc *funcCode) []uint64 {
	if bs == nil {
		return nil
	}
	if m := bs.masks[fc.idx]; m != nil || !bs.stepMode {
		return m
	}
	return fc.stmtMask
}

// StepBreakSet compiles the source-level single-step stop rule into a
// BreakSet: execution stops at any statement-tagged instruction of a
// function other than fn, and at any statement-tagged instruction of fn
// whose statement differs from stmt.
func (vm *VM) StepBreakSet(fn *mach.Func, stmt int) *BreakSet {
	bs := vm.NewBreakSet()
	bs.stepMode = true
	fc, ok := vm.pcode.of(fn)
	if !ok {
		return bs
	}
	m := make([]uint64, len(fc.stmtMask))
	copy(m, fc.stmtMask)
	for i, d := range fc.code {
		if d.in != nil && d.in.Stmt >= 0 && int(d.in.Stmt) == stmt {
			m[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
	bs.masks[fc.idx] = m
	return bs
}
