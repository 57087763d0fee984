package vm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	mcc "repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/randprog"
)

// TestPredecodeMatchesInstr holds every baked slot to the mach.Instr it
// came from, over the corpus workloads at three configurations and
// randprog.Gen(1..200) at O2NoRegAlloc and O2: operand kinds and values,
// destination, offset (an LA's resolved one), callee, and the ready
// indexes of cycle accounting, which must map back to Uses and Def. The
// execution digest sees only output, Steps and Cycles; this test names
// the field a change to mach.Instr forgot to bake. It also pins that the
// predecode range check never fires on compiler output. Predecode is lazy,
// so the test flattens every function itself, entered or not.
func TestPredecodeMatchesInstr(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 424 programs")
	}
	files, err := filepath.Glob("../bench/testdata/*.mc")
	if err != nil || len(files) != 8 {
		t.Fatalf("want the 8 corpus workloads, got %d (%v)", len(files), err)
	}
	all := []mcc.Config{mcc.O0(), mcc.O2NoRegAlloc(), mcc.O2()}
	check := func(name, src string, cfg mcc.Config) {
		r, err := mcc.Compile(name, src, cfg)
		if err != nil {
			return
		}
		pcode := predecode(r.Mach)
		for i, f := range r.Mach.Funcs {
			fc := pcode.fn(int32(i))
			if fc.fn != f || fc.idx != int32(i) {
				t.Fatalf("%s: slot %d holds %s", name, i, fc.fn.Name)
			}
			for pc := range fc.code {
				if err := slotMatches(r.Mach, fc, &fc.code[pc]); err != nil {
					t.Fatalf("%s: %s pc %d: %v", name, f.Name, pc, err)
				}
			}
		}
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range all {
			check(filepath.Base(file), string(src), cfg)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		for _, cfg := range all[1:] {
			check(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), cfg)
		}
	}
}

// slotMatches reports the first field of d that disagrees with its
// instruction, recomputing each from mach.Instr rather than through the
// predecoder's own helpers: the frame-slice slot of every register
// operand, destination, use and def, under the layout int registers,
// float registers, their ready times in the same order, zero, sink.
func slotMatches(prog *mach.Program, fc *funcCode, d *dinstr) error {
	f := fc.fn
	nInt, nFloat := f.NumVregs, f.NumVregs
	if f.Allocated {
		nInt, nFloat = mach.NumIntRegs, mach.NumFloatRegs
	}
	readyBase := nInt + 1 + nFloat + 1
	zero, sink := int32(2*readyBase), int32(2*readyBase+1)
	if fc.zero() != zero || fc.sink() != sink || fc.frameLen() != sink+1 {
		return fmt.Errorf("zero/sink/length %d/%d/%d, want %d/%d/%d",
			fc.zero(), fc.sink(), fc.frameLen(), zero, sink, sink+1)
	}
	slotOf := func(o mach.Opd) int64 {
		if o.Class == mach.FloatClass {
			return int64(nInt + 1 + int(o.R))
		}
		return int64(o.R)
	}
	readyOf := func(o mach.Opd) int32 { return int32(readyBase) + int32(slotOf(o)) }
	in := d.in
	if in == nil {
		if d.op != mach.RET || d.xop != mach.RET || d.ak != kNone || d.cost != 0 ||
			d.u0 != zero || d.u1 != zero || d.useN != 0 || d.def != sink {
			return fmt.Errorf("fall-off sentinel is %+v, want a free void RET", *d)
		}
		return nil
	}
	if d.xop == opMalformed {
		return fmt.Errorf("%s: compiler output failed the range check: %v", in, checkInstr(fc, in))
	}
	if d.op != in.Op {
		return fmt.Errorf("%s: op %s", in, d.op)
	}
	if wantX := wantDispatch(in); d.xop != wantX {
		return fmt.Errorf("%s: dispatches as %d, want %d", in, d.xop, wantX)
	}
	for _, o := range []struct {
		what string
		k    opdKind
		v    int64
		want mach.Opd
	}{{"A", d.ak, d.a, in.A}, {"B", d.bk, d.b, in.B}, {"Dst", d.dk, int64(d.dst), in.Dst}} {
		if o.what == "Dst" && !o.want.IsReg() {
			o.want = mach.Opd{} // only a register destination is written
		}
		if !bakedAs(o.k, o.v, o.want, slotOf) {
			return fmt.Errorf("%s: %s baked as (%d, %d), want %v", in, o.what, o.k, o.v, o.want)
		}
	}
	sym, off := symUnknown, in.Off
	if in.Op == mach.LA {
		obj := f.Obj(in.Sym)
		if o, ok := f.FrameOffOf(obj); ok {
			sym, off = symFrame, o
		} else if o, ok := prog.GlobalOffOf(obj); ok {
			sym, off = symGlobal, o
		}
	}
	if d.sym != sym || d.off != off {
		return fmt.Errorf("%s: offset (%d, %d), want (%d, %d)", in, d.sym, d.off, sym, off)
	}
	if in.Op == mach.CALL {
		want := prog.LookupFunc(in.Callee())
		if (d.callee < 0) != (want == nil) || d.callee >= 0 && prog.Funcs[d.callee] != want {
			return fmt.Errorf("%s: callee %d, want %v", in, d.callee, want)
		}
	}

	free := in.Op == mach.NOP || in.IsMarker()
	var wantUses []int32
	var buf [8]mach.Opd
	if !free {
		for _, u := range in.Uses(buf[:0]) {
			wantUses = append(wantUses, readyOf(u))
		}
	}
	wantDef := sink
	if def := in.Def(); !free && def.IsReg() {
		wantDef = readyOf(def)
	}
	var gotUses []int32
	gotDef := d.def
	if d.useN != 0 {
		// An overflow slot keeps nothing inline: its uses and then its
		// def are in the overflow slice.
		if d.u0 != zero || d.u1 != zero || d.def != sink {
			return fmt.Errorf("%s: inline uses %d, %d and def %d beside the overflow", in, d.u0, d.u1, d.def)
		}
		gotUses = fc.uses[d.useOff : d.useOff+d.useN]
		gotDef = fc.uses[d.useOff+d.useN]
	} else {
		for _, u := range []int32{d.u0, d.u1} {
			if u != zero {
				gotUses = append(gotUses, u)
			}
		}
		if d.u0 == zero && d.u1 != zero {
			return fmt.Errorf("%s: second inline use without a first", in)
		}
	}
	if len(wantUses) > 2 != (d.useN != 0) {
		return fmt.Errorf("%s: %d uses, overflow %d", in, len(wantUses), d.useN)
	}
	if !slices.Equal(gotUses, wantUses) {
		return fmt.Errorf("%s: ready uses %v, want %v", in, gotUses, wantUses)
	}
	if gotDef != wantDef {
		return fmt.Errorf("%s: ready def %d, want %d", in, gotDef, wantDef)
	}
	wantCost, wantLat := uint8(1), uint8(in.Op.Latency())
	if free {
		wantCost, wantLat = 0, 0
	}
	if d.cost != wantCost || d.lat != wantLat {
		return fmt.Errorf("%s: cost/latency %d/%d, want %d/%d", in, d.cost, d.lat, wantCost, wantLat)
	}
	return nil
}

// wantDispatch is the opcode exec should dispatch in on, restated from
// its operands: the op itself for a form the inline switch handles (or
// opMovF for a float MOV), opSlow for a form it leaves to Val, and the op
// for every opcode the inline switch never handles.
func wantDispatch(in *mach.Instr) mach.Opcode {
	reg := func(o mach.Opd, c mach.RegClass) bool { return o.IsReg() && o.Class == c }
	iA, fA, iD, fD := reg(in.A, mach.IntClass), reg(in.A, mach.FloatClass), reg(in.Dst, mach.IntClass), reg(in.Dst, mach.FloatClass)
	intB := reg(in.B, mach.IntClass) || in.B.Kind == mach.Imm || in.B.Kind == mach.None
	floatB := reg(in.B, mach.FloatClass) || in.B.Kind == mach.FImm
	var inline bool
	switch op := in.Op; {
	case mach.ADD <= op && op <= mach.NOT:
		inline = iA && intB && iD
	case op == mach.FADD || op == mach.FSUB || op == mach.FMUL:
		inline = fA && floatB && fD
	case mach.FSEQ <= op && op <= mach.FSGE:
		inline = fA && floatB && iD
	case op == mach.MOV:
		if fD && (fA || in.A.Kind == mach.FImm) {
			return opMovF
		}
		inline = iD && (iA || in.A.Kind == mach.Imm)
	case op == mach.LW:
		inline = iA && iD
	case op == mach.FLW:
		inline = iA && fD
	case op == mach.SW:
		inline = iA && (reg(in.B, mach.IntClass) || in.B.Kind == mach.Imm)
	case op == mach.FSW:
		inline = iA && floatB
	case op == mach.BNEZ:
		inline = iA
	default:
		return op
	}
	if !inline {
		return opSlow
	}
	return in.Op
}

// bakedAs reports whether the baked operand (k, v) is o: same kind and
// register file, and the register's frame-slice slot (slotOf), the
// immediate or the float bits.
func bakedAs(k opdKind, v int64, o mach.Opd, slotOf func(mach.Opd) int64) bool {
	switch o.Kind {
	case mach.Reg:
		want := kIReg
		if o.Class == mach.FloatClass {
			want = kFReg
		}
		return k == want && v == slotOf(o)
	case mach.Imm:
		return k == kImm && v == o.Imm
	case mach.FImm:
		return k == kFImm && uint64(v) == math.Float64bits(o.Float())
	}
	return k == kNone && v == 0
}

// handProg builds a program whose main runs "mov r0, 7", then bad, then
// "ret r0", in a function with nvregs virtual registers (or physical
// ones when allocated) and a frameSize-byte frame.
func handProg(bad *mach.Instr, nvregs int, allocated bool, frameSize int64) *mach.Program {
	b := &mach.Block{Instrs: []*mach.Instr{
		{Op: mach.MOV, Dst: mach.R_(0), A: mach.I_(7)},
		bad,
		{Op: mach.RET, A: mach.R_(0)},
	}}
	f := &mach.Func{Name: "main", Blocks: []*mach.Block{b}, Entry: b,
		NumVregs: nvregs, Allocated: allocated, FrameSize: frameSize}
	return &mach.Program{Funcs: []*mach.Func{f}}
}

// TestMalformedInstrFails: an instruction whose register lies outside
// its file, or whose spill-slot offset lies outside the frame, fails
// when executed, through Step and RunBreaks alike, with an error naming
// the function. It writes nothing: the frame slice (both register files,
// their ready times and the zero slot), memory and Cycles are as they
// were before it.
func TestMalformedInstrFails(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bad       *mach.Instr
		allocated bool
		want      string
	}{
		{"int dst past the file", &mach.Instr{Op: mach.ADD, Dst: mach.R_(4), A: mach.R_(0), B: mach.R_(0)}, false, "register r4"},
		{"int dst at NumVregs", &mach.Instr{Op: mach.MOV, Dst: mach.R_(3), A: mach.R_(0)}, false, "register r3"},
		{"int use past the file", &mach.Instr{Op: mach.MOV, Dst: mach.R_(1), A: mach.R_(9)}, false, "register r9"},
		{"negative int register", &mach.Instr{Op: mach.SUB, Dst: mach.R_(1), A: mach.R_(0), B: mach.R_(-1)}, false, "register r-1"},
		{"float use past the file", &mach.Instr{Op: mach.FADD, Dst: mach.FR(0), A: mach.FR(0), B: mach.FR(3)}, false, "register f3"},
		{"store base past the file", &mach.Instr{Op: mach.SW, A: mach.R_(5), B: mach.R_(0)}, false, "register r5"},
		{"call argument past the file", &mach.Instr{Op: mach.CALL, Dst: mach.R_(1), Cold: &mach.Cold{Callee: "main", Args: []mach.Opd{mach.R_(0), mach.R_(0), mach.R_(6)}}}, false, "register r6"},
		{"print value past the file", &mach.Instr{Op: mach.PRINT, Cold: &mach.Cold{PrintFmt: []mach.PrintArg{{Val: mach.FR(8)}}}}, false, "register f8"},
		{"physical int register past NumIntRegs", &mach.Instr{Op: mach.MOV, Dst: mach.R_(mach.NumIntRegs), A: mach.R_(0)}, true, fmt.Sprintf("register r%d", mach.NumIntRegs)},
		{"physical float register past NumFloatRegs", &mach.Instr{Op: mach.CVTIF, Dst: mach.FR(mach.NumFloatRegs), A: mach.R_(0)}, true, fmt.Sprintf("register f%d", mach.NumFloatRegs)},
		{"lw.fp at the frame end", &mach.Instr{Op: mach.LWFP, Dst: mach.R_(1), Off: 8}, false, "frame offset 8"},
		{"sw.fp below the frame", &mach.Instr{Op: mach.SWFP, B: mach.R_(0), Off: -4}, false, "frame offset -4"},
		{"flw.fp past the frame", &mach.Instr{Op: mach.FLWFP, Dst: mach.FR(1), Off: 64}, false, "frame offset 64"},
		{"fsw.fp below the frame", &mach.Instr{Op: mach.FSWFP, B: mach.FR(0), Off: -8}, false, "frame offset -8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := handProg(tc.bad, 3, tc.allocated, 8)
			for _, path := range []string{"Step", "RunBreaks"} {
				v, err := New(prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := v.Step(); err != nil {
					t.Fatalf("%s: mov: %v", path, err)
				}
				// The whole frame slice (registers, ready times and the
				// zero slot) but the sink, which absorbs the def of any
				// instruction that defines no register.
				fr := v.Top()
				live := fr.regs[:fr.code.sink()]
				regs, mem, cycles := slices.Clone(live), slices.Clone(v.mem), v.Cycles
				if path == "Step" {
					err = v.Step()
				} else {
					err = v.RunBreaks(v.NewBreakSet(), false)
				}
				if err == nil {
					t.Fatalf("%s: malformed %q executed without an error", path, tc.bad)
				}
				msg := err.Error()
				if !strings.Contains(msg, "malformed instruction in main") || !strings.Contains(msg, tc.want) {
					t.Errorf("%s: error %q, want it to name main and %q", path, msg, tc.want)
				}
				if v.Steps != 2 {
					t.Errorf("%s: Steps %d after the fault, want 2", path, v.Steps)
				}
				if len(fr.regs) != int(fr.code.frameLen()) || !slices.Equal(live, regs) ||
					!slices.Equal(v.mem, mem) || v.Cycles != cycles {
					t.Errorf("%s: the malformed instruction wrote state", path)
				}
			}
		})
	}
}

// TestWellFormedHandProg is the control for TestMalformedInstrFails: the
// same hand-built program with in-range operands runs to exit.
func TestWellFormedHandProg(t *testing.T) {
	for _, ok := range []*mach.Instr{
		{Op: mach.ADD, Dst: mach.R_(2), A: mach.R_(0), B: mach.R_(0)},
		{Op: mach.LWFP, Dst: mach.R_(1), Off: 4},
		{Op: mach.FSWFP, B: mach.FR(2), Off: 0},
	} {
		v, err := New(handProg(ok, 3, false, 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(); err != nil || v.ExitValue() != 7 {
			t.Errorf("%s: exit %d, err %v; want 7, nil", ok, v.ExitValue(), err)
		}
	}
}

// TestRegisterAccessors: IntReg and FloatReg read their own file of the
// frame slice, spare slot included, and panic past it as an index into
// the file would, never reading the other file or the ready times.
func TestRegisterAccessors(t *testing.T) {
	v, err := New(handProg(&mach.Instr{Op: mach.CVTIF, Dst: mach.FR(2), A: mach.R_(0)}, 3, false, 8))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // mov r0, 7; cvt.if f2, r0
		if err := v.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fr := v.Top()
	if fr.IntReg(0) != 7 || fr.FloatReg(2) != 7 || fr.IntReg(3) != 0 || fr.FloatReg(3) != 0 {
		t.Errorf("r0 %d, f2 %g, spare slots %d and %g; want 7, 7, 0, 0",
			fr.IntReg(0), fr.FloatReg(2), fr.IntReg(3), fr.FloatReg(3))
	}
	for _, bad := range []func(){
		func() { fr.IntReg(4) }, func() { fr.IntReg(-1) },
		func() { fr.FloatReg(4) }, func() { fr.FloatReg(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a register outside its file did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestInlineFaultsLeaveTheLoop: DIV, REM, LW, FLW, SW and FSW run in
// exec's inline switch; a zero divisor or an address out of bounds leaves
// it for the out-of-line path, which fails with the error the general
// path gives, through Step and RunBreaks alike, writing no register or
// memory and with the instruction's cycle counted.
func TestInlineFaultsLeaveTheLoop(t *testing.T) {
	for _, tc := range []struct {
		bad  *mach.Instr
		want string
	}{
		{&mach.Instr{Op: mach.DIV, Dst: mach.R_(1), A: mach.R_(0), B: mach.R_(2)}, "integer division by zero"},
		{&mach.Instr{Op: mach.REM, Dst: mach.R_(1), A: mach.R_(0), B: mach.I_(0)}, "integer remainder by zero"},
		{&mach.Instr{Op: mach.LW, Dst: mach.R_(1), A: mach.R_(0), Off: 1 << 20}, "lw out of bounds at 1048583"},
		{&mach.Instr{Op: mach.FLW, Dst: mach.FR(1), A: mach.R_(0), Off: -8}, "flw out of bounds at -1"},
		{&mach.Instr{Op: mach.SW, A: mach.R_(0), B: mach.R_(0), Off: -10}, "sw out of bounds at -3"},
		{&mach.Instr{Op: mach.FSW, A: mach.R_(0), B: mach.FR(0), Off: 1 << 40}, "fsw out of bounds at"},
	} {
		var cycles []int64
		for _, path := range []string{"Step", "RunBreaks"} {
			v, err := New(handProg(tc.bad, 3, false, 8))
			if err != nil {
				t.Fatal(err)
			}
			if wantX := wantDispatch(tc.bad); wantX != tc.bad.Op {
				t.Fatalf("%s dispatches as %d, want inline", tc.bad, wantX)
			}
			if err := v.Step(); err != nil {
				t.Fatal(err)
			}
			regs, mem := slices.Clone(v.Top().regs), slices.Clone(v.mem)
			if path == "Step" {
				err = v.Step()
			} else {
				err = v.RunBreaks(v.NewBreakSet(), false)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "in main") {
				t.Errorf("%s: %s: error %v, want %q in main", path, tc.bad, err, tc.want)
			}
			// The sink and the def's ready slot hold the accounting.
			live := v.Top().code.readyBase()
			if v.Steps != 2 || !slices.Equal(v.Top().regs[:live], regs[:live]) || !slices.Equal(v.mem, mem) {
				t.Errorf("%s: %s: Steps %d, or a register or memory was written", path, tc.bad, v.Steps)
			}
			cycles = append(cycles, v.Cycles)
		}
		if cycles[0] != cycles[1] || cycles[0] != 2 {
			t.Errorf("%s: Cycles %v on Step and RunBreaks, want 2 on both", tc.bad, cycles)
		}
	}
}
