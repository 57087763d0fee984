// Package vm implements the simulator for mcc's virtual MIPS-like target.
// It executes machine code either before register allocation (virtual
// registers, one per value) or after (physical registers plus spill slots),
// counts cycles using per-opcode latencies, and exposes the debugger hooks
// the paper's model needs: run-to-breakpoint, single-step, and inspection
// of registers and memory at the stopped position.
//
// Execution (Run, RunBreaks, Step) is one loop, exec, over the predecoded
// pc-indexed instruction array (see predecode.go). It executes from the
// operands baked into each slot on one slice per frame holding both
// register files and their ready times, makes no call on its hot path,
// and tests a breakpoint bitmap bit per instruction. RunBreaks folds the
// step-budget and wall-clock-deadline checks into one counter examined
// every checkQuantum instructions; Step runs exec for one instruction.
// The tests build their reference stop-predicate loop from Step, Position
// and Halted and hold RunBreaks to it.
package vm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/mach"
)

// ErrStepLimit is returned (wrapped) when execution exhausts MaxSteps —
// the per-session execution budget of the debug-session server.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// ErrDeadline is returned (wrapped) when execution runs past the wall-clock
// deadline set by SetDeadline — the server's per-request timeout. The VM
// stays consistent at the instruction boundary where the deadline was
// noticed: cycles and position reflect exactly the instructions executed,
// so a timed-out continue still conserves the session's cycle accounting.
var ErrDeadline = errors.New("vm: deadline exceeded")

// ErrOutputLimit is returned (wrapped) when a program prints more than
// MaxOutput bytes. The VM stays consistent: everything printed before the
// limit is retained in Output, and the error is deterministic (the same
// program trips it at the same print every run).
var ErrOutputLimit = errors.New("vm: output limit exceeded")

// ErrReleased is returned (wrapped) by Step, Run, RunBreaks and the ReadMem
// methods of a VM whose memory Release has handed back: a released VM
// fails closed instead of reading memory another session now owns.
var ErrReleased = errors.New("vm: session memory released")

// ErrCallDepth is returned (wrapped) when a call would make the stack deeper
// than maxCallDepth frames, or its frame memory larger than maxFrameBytes,
// naming the caller and the callee; New returns it when main's own frame
// is larger than maxFrameBytes.
var ErrCallDepth = errors.New("vm: call depth limit exceeded")

// maxCallDepth bounds the call stack, so unbounded recursion cannot grow
// the VM until the process is killed long before the step budget trips.
// At the bound, frames of the corpus's mean size (2.4 KB with register
// slice and memory words) hold 39 MiB; the workloads reach 23 frames.
const maxCallDepth = 1 << 14

// maxFrameBytes bounds the MiniC frame memory of the call stack, so a
// recursive function with a large local array cannot hold more than the
// frame bound would at the corpus's mean frame size: 16 MiB of 4-byte
// words is 32 MiB of 8-byte memory words. (gcc's depthof frame is 67 KB;
// 16,384 of them would hold over 1 GiB.)
const maxFrameBytes = 16 << 20

// DefaultMaxOutput bounds Output when MaxOutput is zero. Without a bound
// a print-loop program grows the output buffer (and server memory)
// without limit.
const DefaultMaxOutput = 64 << 20

// checkQuantum is how many instructions the hot loop executes between
// slow checks (wall-clock deadline). It must be a power of two; the
// single-step path keeps the same cadence so both paths read the clock on
// the same step numbers.
const checkQuantum = 1024

// Val is one runtime value (integer word or float).
type Val struct {
	I   int64
	F   float64
	IsF bool
}

// Frame is one activation record. The VM reuses one Frame per call depth,
// so a *Frame (from Top) is valid only until the VM executes again: a
// return and a later call at the same depth overwrite it in place.
type Frame struct {
	Fn   *mach.Func
	Base int64 // byte address of this frame's memory area
	Args []Val

	// regs holds the int registers, the float registers' bits, the cycle
	// each register is ready at, then the zero and sink slots (see
	// funcCode.nInt). An instruction stalls until its operands are ready.
	regs []int64

	// code/pc drive execution: pc indexes the function's predecoded flat
	// instruction array. The debugger-visible (block, idx) position is
	// derived from pc through the predecode tables.
	code *funcCode
	pc   int32
	// retK/retR say where the caller wants the return value: a slot of
	// the caller's frame slice, or nowhere when retK is kNone.
	retK opdKind
	retR int32
}

// IntReg returns int register r; it panics when r is outside the file.
func (fr *Frame) IntReg(r int) int64 { return fr.regs[:fileLen(fr.code.nInt)][r] }

// FloatReg returns float register r; it panics when r is outside the file.
func (fr *Frame) FloatReg(r int) float64 {
	return f64(fr.regs[fileLen(fr.code.nInt):fr.code.readyBase()][r])
}

// Pos identifies an execution position (the debugger's program counter).
type Pos struct {
	Fn    *mach.Func
	Block *mach.Block
	Idx   int
}

// VM is the simulator.
type VM struct {
	Prog *mach.Program

	pcode *progCode
	empty *BreakSet // lazily built all-clear set backing Run

	// mem holds one int64 per 4-byte word of the target: globals at
	// [0, GlobalSize/4), frames stacked above. A word holds raw bits: SW
	// stores an int wrapped to 32 bits, SWFP a register's full 64 bits,
	// FSW and FSWFP a float's bits. Each load reads the bits back in its
	// own type, so a word last stored as the other type (only ever
	// uninitialized memory) reads as those bits reinterpreted. nil once
	// Release has handed the memory back (see memPool).
	mem   []int64
	sp    int64 // next free byte address for frames
	spMax int64 // the bound on sp: the end of the globals plus maxFrameBytes
	out   strings.Builder
	stack []*Frame // the live frames: pool[:depth]
	// pool holds one Frame per call depth reached so far; a call at depth
	// d reuses pool[d], so calls and returns allocate nothing once the
	// deepest frame and its register files exist.
	pool []*Frame

	Cycles int64
	Steps  int64
	// MaxSteps bounds execution (0 = default limit).
	MaxSteps int64
	// MaxOutput bounds the program-output buffer in bytes: printing past
	// it returns an error wrapping ErrOutputLimit. 0 means
	// DefaultMaxOutput; negative means unlimited.
	MaxOutput int64
	// deadline, when nonzero, is a wall-clock bound (UnixNano) checked
	// every checkQuantum steps; past it execution returns ErrDeadline.
	deadline int64

	halted bool
	retVal Val
}

// New prepares a VM for prog with main as the entry point. Its memory
// comes from memory a released VM handed back when there is some, cleared
// first, so it is exactly a fresh VM's. New refuses a program whose
// GlobalSize is negative or over ast.MaxDataBytes, which the checker never
// produces.
func New(prog *mach.Program) (*VM, error) {
	main := funcIndex(prog, "main")
	if main < 0 {
		return nil, fmt.Errorf("vm: program has no main")
	}
	globalBytes := prog.GlobalSize
	if globalBytes < 0 || globalBytes > ast.MaxDataBytes {
		return nil, fmt.Errorf("vm: %d bytes of global data, want 0 to %d", globalBytes, ast.MaxDataBytes)
	}
	vm := &VM{Prog: prog, pcode: predecode(prog), MaxSteps: 200_000_000}
	vm.sp = (globalBytes + 7) &^ 3
	vm.spMax = vm.sp + maxFrameBytes
	vm.mem = getMem(int(globalBytes/4)+4, vm.maxWords())
	for id, init := range prog.GlobalInit {
		off, _ := prog.GlobalOffOf(prog.Globals[id])
		switch init.Kind {
		case ir.NoOpd:
		case ir.ConstF:
			vm.mem[off/4] = bits(init.F())
		default:
			vm.mem[off/4] = init.Int
		}
	}
	if vm.push(vm.pcode.fn(main), 0, kNone, 0) == nil {
		vm.Release()
		return nil, fmt.Errorf("%w: main's frame is over %d bytes", ErrCallDepth, maxFrameBytes)
	}
	return vm, nil
}

// maxWords is the most memory words the VM can use: its frames never take
// sp past spMax.
func (vm *VM) maxWords() int { return int((vm.spMax + 3) / 4) }

// Release hands the VM's memory back for a later New to reuse. A released
// VM fails closed: Step, Run, RunBreaks and the ReadMem methods return an
// error wrapping ErrReleased, and it never reads memory again. Position,
// Top, Output and the counters stay readable. Release is idempotent and
// must not run concurrently with anything else on the VM.
func (vm *VM) Release() {
	if vm.mem != nil {
		putMem(vm.mem)
		vm.mem = nil
	}
}

// released reports ErrReleased once Release has run.
func (vm *VM) released() error {
	if vm.mem == nil {
		return ErrReleased
	}
	return nil
}

// push enters fc on the pooled frame of the next call depth, with a
// zeroed frame slice and nargs zeroed arguments for the caller to fill
// in. Frame memory the stack has used before is not cleared; memory it
// grows into is zero. It returns nil, changing nothing, when the stack
// already holds maxCallDepth frames or fc's frame would take its frame
// memory past maxFrameBytes.
func (vm *VM) push(fc *funcCode, nargs int, retK opdKind, retR int32) *Frame {
	fn := fc.fn
	d := len(vm.stack)
	sp := vm.sp + (fn.FrameSize+7)&^3
	if d == maxCallDepth || sp > vm.spMax {
		return nil
	}
	if d == len(vm.pool) {
		vm.pool = append(vm.pool, new(Frame))
	}
	fr := vm.pool[d]
	fr.Fn = fn
	fr.regs = reuse(fr.regs, int(fc.frameLen()))
	fr.Base = vm.sp
	fr.Args = reuse(fr.Args, nargs)
	fr.code = fc
	fr.pc = fc.entry
	fr.retK, fr.retR = retK, retR
	vm.sp = sp
	if n := int((sp + 3) / 4); n > len(vm.mem) {
		vm.grow(n)
	}
	vm.stack = vm.pool[:d+1]
	return fr
}

// grow extends mem to n words, the new ones zero. Past its capacity it
// moves to a segment of the next capacity class (see memPool), so a deep
// stack grows geometrically, and hands the old one back.
func (vm *VM) grow(n int) {
	old := vm.mem
	if n <= cap(old) {
		vm.mem = old[:n]
		clear(vm.mem[len(old):])
		return
	}
	vm.mem = getMem(n, vm.maxWords())
	copy(vm.mem, old)
	putMem(old)
}

// reuse returns s resliced to n zeroed elements, allocating only when its
// capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetDeadline bounds subsequent execution by wall-clock time: once t has
// passed, execution returns an error wrapping ErrDeadline. The zero time
// clears the deadline. The check is amortized — the clock is read once
// every checkQuantum steps — so steady-state execution pays no per-step
// time syscall.
func (vm *VM) SetDeadline(t time.Time) {
	if t.IsZero() {
		vm.deadline = 0
		return
	}
	vm.deadline = t.UnixNano()
}

// checkDeadline reports ErrDeadline when the wall-clock deadline has
// already passed. RunBreaks calls it before executing anything: the
// in-loop checks fire only at
// checkQuantum-aligned step counts, so without the entry check a program
// shorter than checkQuantum steps — or a request admitted after its
// deadline under queueing delay — would run to completion against an
// expired deadline instead of failing fast. The clock is read only when
// a deadline is armed, so deadline-free execution still pays nothing.
func (vm *VM) checkDeadline() error {
	if vm.deadline != 0 && time.Now().UnixNano() > vm.deadline {
		name := "main"
		if fr := vm.Top(); fr != nil {
			name = fr.Fn.Name
		}
		return fmt.Errorf("%w in %s", ErrDeadline, name)
	}
	return nil
}

// Halted reports whether the program has finished.
func (vm *VM) Halted() bool { return vm.halted }

// ExitValue returns main's return value once halted.
func (vm *VM) ExitValue() int64 { return vm.retVal.I }

// Output returns everything printed so far.
func (vm *VM) Output() string { return vm.out.String() }

// Top returns the current (innermost) frame, or nil when halted. The
// frame is valid only until the VM executes again (see Frame).
func (vm *VM) Top() *Frame {
	if len(vm.stack) == 0 {
		return nil
	}
	return vm.stack[len(vm.stack)-1]
}

// Position returns the current execution position.
func (vm *VM) Position() Pos {
	fr := vm.Top()
	if fr == nil {
		return Pos{}
	}
	fc := fr.code
	return Pos{Fn: fr.Fn, Block: fc.blocks[fr.pc], Idx: int(fc.idxs[fr.pc])}
}

// CurrentInstr returns the instruction about to execute, or nil.
func (vm *VM) CurrentInstr() *mach.Instr {
	fr := vm.Top()
	if fr == nil {
		return nil
	}
	return fr.code.code[fr.pc].in
}

// Run executes until the program halts, on the predecoded fast path.
func (vm *VM) Run() error {
	if vm.empty == nil {
		vm.empty = vm.NewBreakSet()
	}
	return vm.RunBreaks(vm.empty, false)
}

// RunBreaks executes until the current position's bit in bs is set
// (checked before each instruction), the program halts, or the step
// budget, deadline, or an execution fault cuts it off. It is the
// predecoded fast path behind run-to-breakpoint and source-level step:
// dispatch walks the flat instruction array and the stop check is one
// bitmap bit test, with the budget and deadline checks folded into a
// single fused counter examined every checkQuantum instructions.
//
// When skipCurrent is set the first instruction executes unconditionally
// before stopping is considered: resuming from a breakpoint must not
// immediately re-trigger it.
func (vm *VM) RunBreaks(bs *BreakSet, skipCurrent bool) error {
	if err := vm.released(); err != nil {
		return err
	}
	if bs == nil || bs.pc != vm.pcode {
		return errors.New("vm: BreakSet was compiled for a different program")
	}
	if err := vm.checkDeadline(); err != nil {
		return err
	}
	if skipCurrent && !vm.halted {
		if err := vm.Step(); err != nil {
			return err
		}
	}
	for !vm.halted {
		// The fused counter: instructions until the next slow check — the
		// deadline checkpoint (aligned to checkQuantum multiples of Steps,
		// the same cadence the single-step path keeps) or the step budget,
		// whichever comes first.
		n := checkQuantum - vm.Steps&(checkQuantum-1)
		if rem := vm.MaxSteps - vm.Steps; rem < n {
			n = rem
		}
		if n <= 0 {
			// Budget exhausted: a stop at the current position still wins
			// (the stop check precedes the step attempt, as in the
			// reference path).
			fr := vm.stack[len(vm.stack)-1]
			if m := bs.mask(fr.code); m != nil && m[fr.pc>>6]&(1<<(uint(fr.pc)&63)) != 0 {
				return nil
			}
			vm.Steps++
			return fmt.Errorf("%w in %s", ErrStepLimit, fr.Fn.Name)
		}
		if stopped, err := vm.exec(bs, n); stopped || err != nil {
			return err
		}
		if vm.halted {
			break
		}
		if vm.deadline != 0 && vm.Steps&(checkQuantum-1) == 0 &&
			time.Now().UnixNano() > vm.deadline {
			return fmt.Errorf("%w in %s", ErrDeadline, vm.Top().Fn.Name)
		}
	}
	return nil
}

// regVal reads a mach.Opd operand in fr: the CALL arguments and PRINT
// values, which are not baked.
func (fr *Frame) regVal(o mach.Opd) Val {
	switch o.Kind {
	case mach.Imm:
		return Val{I: o.Imm}
	case mach.FImm:
		return Val{F: o.Float(), IsF: true}
	case mach.Reg:
		if o.Class == mach.FloatClass {
			return Val{F: fr.FloatReg(int(o.R)), IsF: true}
		}
		return Val{I: fr.IntReg(int(o.R))}
	}
	return Val{}
}

// val reads the baked operand (k, v) in frame fr.
func (fr *Frame) val(k opdKind, v int64) Val {
	switch k {
	case kIReg:
		return Val{I: fr.regs[v]}
	case kFReg:
		return Val{F: f64(fr.regs[v]), IsF: true}
	case kImm:
		return Val{I: v}
	case kFImm:
		return Val{F: f64(v), IsF: true}
	}
	return Val{}
}

// ival is the integer view of the baked operand (k, v): Val.I of val.
func (fr *Frame) ival(k opdKind, v int64) int64 {
	switch k {
	case kIReg:
		return fr.regs[v]
	case kImm:
		return v
	}
	return 0
}

// fval is the float view of the baked operand (k, v), an int converted.
func (fr *Frame) fval(k opdKind, v int64) float64 {
	x := fr.val(k, v)
	if !x.IsF {
		return float64(x.I)
	}
	return x.F
}

// set writes v to the register in slot r of kind k, converting between the
// int and float views and truncating integers to 32 bits; kNone writes nothing.
func (fr *Frame) set(k opdKind, r int32, v Val) {
	switch k {
	case kIReg:
		x := v.I
		if v.IsF {
			x = int64(v.F)
		}
		fr.regs[r] = int64(int32(x))
	case kFReg:
		x := v.F
		if !v.IsF {
			x = float64(v.I)
		}
		fr.regs[r] = bits(x)
	}
}

// f64 and bits convert between a float and the int64 its frame slot holds.
func f64(x int64) float64  { return math.Float64frombits(uint64(x)) }
func bits(f float64) int64 { return int64(math.Float64bits(f)) }

// ReadMemInt reads the int word at byte address addr.
func (vm *VM) ReadMemInt(addr int64) (int64, error) { return vm.word(addr) }

// ReadMemFloat reads the float word at byte address addr.
func (vm *VM) ReadMemFloat(addr int64) (float64, error) {
	w, err := vm.word(addr)
	return f64(w), err
}

// word reads the raw bits of the word at byte address addr.
func (vm *VM) word(addr int64) (int64, error) {
	if err := vm.released(); err != nil {
		return 0, err
	}
	if addr < 0 || addr/4 >= int64(len(vm.mem)) {
		return 0, fmt.Errorf("vm: read out of bounds at %d", addr)
	}
	return vm.mem[addr/4], nil
}

// AddrOf returns the runtime byte address of obj in frame fr (or the global
// segment).
func (vm *VM) AddrOf(fr *Frame, obj *ast.Object) (int64, bool) {
	if off, ok := fr.Fn.FrameOffOf(obj); ok {
		return fr.Base + off, true
	}
	if off, ok := vm.Prog.GlobalOffOf(obj); ok {
		return off, true
	}
	return 0, false
}

// Step executes one instruction.
func (vm *VM) Step() error {
	if err := vm.released(); err != nil {
		return err
	}
	fr := vm.Top()
	if fr == nil {
		vm.halted = true
		return nil
	}
	vm.Steps++
	if vm.Steps > vm.MaxSteps {
		return fmt.Errorf("%w in %s", ErrStepLimit, fr.Fn.Name)
	}
	if vm.deadline != 0 && vm.Steps&(checkQuantum-1) == 0 && time.Now().UnixNano() > vm.deadline {
		return fmt.Errorf("%w in %s", ErrDeadline, fr.Fn.Name)
	}
	vm.Steps-- // exec counts the step it runs
	_, err := vm.exec(nil, 1)
	return err
}

// exec executes from the top frame's pc until an instruction whose bit is
// set in its function's mask in bs (nil stops nowhere), reported as
// stopped and not executed; until n instructions have run; or until the
// program halts or faults. Calls and returns switch frames inside exec.
// The inline switch handles only forms that need no call (inlineForm), so
// the hot loop calls nothing and Go keeps pc, the cycle count and the step
// count in registers. Every other slot, and an inline load, store or
// division that would fault, leaves it after its cycle accounting for the
// out-of-line section and re-enters. pc, Cycles and Steps are written back
// on return: a fault leaves the VM after the faulting instruction.
func (vm *VM) exec(bs *BreakSet, n int64) (stopped bool, err error) {
	fr := vm.stack[len(vm.stack)-1]
	code, r, mask := fr.code.code, fr.regs, bs.mask(fr.code)
	pc, cycles, left := int(fr.pc), vm.Cycles, n
	vm.Steps += n // less the instructions left, on return
run:
	for {
	hot:
		for {
			if mask != nil && mask[pc>>6]&(1<<(uint(pc)&63)) != 0 {
				stopped = true
				break run
			}
			if left == 0 {
				break run
			}
			left--
			d := &code[pc]

			// Cycle accounting: issue once the operands are ready, one slot
			// per instruction, the def ready after the latency. An absent use
			// reads the zero slot, an absent def writes the sink: no branch.
			issue := max(cycles, r[d.u0], r[d.u1])
			cycles = issue + int64(d.cost)
			r[d.def] = issue + int64(d.lat)
			pc++

			switch d.xop {
			case mach.NOP, mach.MARKDEAD, mach.MARKAVAIL:
				// no effect

			// The integer fast form: int register A, int register or immediate B.
			case mach.ADD:
				r[d.dst] = int64(int32(r[d.a] + d.ib(r)))
			case mach.SUB:
				r[d.dst] = int64(int32(r[d.a] - d.ib(r)))
			case mach.MUL:
				r[d.dst] = int64(int32(r[d.a] * d.ib(r)))
			case mach.DIV:
				b := d.ib(r)
				if b == 0 {
					break hot // the division fault is reported out of line
				}
				r[d.dst] = int64(int32(r[d.a] / b))
			case mach.REM:
				b := d.ib(r)
				if b == 0 {
					break hot
				}
				r[d.dst] = int64(int32(r[d.a] % b))
			case mach.SHL:
				r[d.dst] = int64(int32(r[d.a] << (uint(d.ib(r)) & 31)))
			case mach.SHR:
				r[d.dst] = int64(int32(r[d.a] >> (uint(d.ib(r)) & 31)))
			case mach.OR:
				r[d.dst] = int64(int32(r[d.a] | d.ib(r)))
			case mach.XOR:
				r[d.dst] = int64(int32(r[d.a] ^ d.ib(r)))
			case mach.SEQ:
				r[d.dst] = b2i(r[d.a] == d.ib(r))
			case mach.SNE:
				r[d.dst] = b2i(r[d.a] != d.ib(r))
			case mach.SLT:
				r[d.dst] = b2i(r[d.a] < d.ib(r))
			case mach.SLE:
				r[d.dst] = b2i(r[d.a] <= d.ib(r))
			case mach.SGT:
				r[d.dst] = b2i(r[d.a] > d.ib(r))
			case mach.SGE:
				r[d.dst] = b2i(r[d.a] >= d.ib(r))
			case mach.NEG:
				r[d.dst] = int64(int32(-r[d.a]))
			case mach.NOT:
				r[d.dst] = b2i(r[d.a] == 0)

			// The float fast form: float register A, float register or immediate B.
			case mach.FADD:
				r[d.dst] = bits(f64(r[d.a]) + f64(d.ib(r)))
			case mach.FSUB:
				r[d.dst] = bits(f64(r[d.a]) - f64(d.ib(r)))
			case mach.FMUL:
				r[d.dst] = bits(f64(r[d.a]) * f64(d.ib(r)))
			case mach.FSEQ:
				r[d.dst] = b2i(f64(r[d.a]) == f64(d.ib(r)))
			case mach.FSNE:
				r[d.dst] = b2i(f64(r[d.a]) != f64(d.ib(r)))
			case mach.FSLT:
				r[d.dst] = b2i(f64(r[d.a]) < f64(d.ib(r)))
			case mach.FSLE:
				r[d.dst] = b2i(f64(r[d.a]) <= f64(d.ib(r)))
			case mach.FSGT:
				r[d.dst] = b2i(f64(r[d.a]) > f64(d.ib(r)))
			case mach.FSGE:
				r[d.dst] = b2i(f64(r[d.a]) >= f64(d.ib(r)))

			case mach.MOV:
				r[d.dst] = int64(int32(d.ia(r)))
			case opMovF:
				r[d.dst] = d.ia(r)

			// vm.mem is read per access: a call may grow it.
			case mach.LW:
				i, mem := uint64(r[d.a]+d.off)>>2, vm.mem
				if i >= uint64(len(mem)) {
					break hot
				}
				r[d.dst] = int64(int32(mem[i]))
			case mach.FLW:
				i, mem := uint64(r[d.a]+d.off)>>2, vm.mem
				if i >= uint64(len(mem)) {
					break hot
				}
				r[d.dst] = mem[i]
			case mach.SW:
				i, mem := uint64(r[d.a]+d.off)>>2, vm.mem
				if i >= uint64(len(mem)) {
					break hot
				}
				mem[i] = int64(int32(d.ib(r)))
			case mach.FSW:
				i, mem := uint64(r[d.a]+d.off)>>2, vm.mem
				if i >= uint64(len(mem)) {
					break hot
				}
				mem[i] = d.ib(r)

			case mach.J:
				pc = int(d.t0)
			case mach.BNEZ:
				pc = int(d.t1)
				if r[d.a] != 0 {
					pc = int(d.t0)
				}

			default:
				break hot
			}
		}

		// Out of line: d, at pc-1, has had its inline cycle accounting. The
		// frame is reloaded from the stack, so the hot loop holds none.
		fr := vm.stack[len(vm.stack)-1]
		d := &fr.code.code[pc-1]
		if d.useN != 0 {
			// Fold the overflow uses, and only then write the def: a CALL
			// may redefine one of its own arguments.
			issue := cycles - int64(d.cost)
			ov := fr.code.uses[d.useOff : d.useOff+d.useN+1]
			for _, u := range ov[:d.useN] {
				issue = max(issue, r[u])
			}
			cycles = issue + int64(d.cost)
			r[ov[d.useN]] = issue + int64(d.lat)
		}
		switch d.xop {
		case mach.CALL:
			if d.callee < 0 {
				err = fmt.Errorf("vm: call of unknown function %q", d.in.Callee())
				break run
			}
			fr.pc = int32(pc)
			args := d.in.Args()
			callee := vm.push(vm.pcode.fn(d.callee), len(args), d.dk, d.dst)
			if callee == nil {
				err = fmt.Errorf("%w (%d frames, %d frame bytes) in %s calling %s", ErrCallDepth, len(vm.stack), vm.sp+maxFrameBytes-vm.spMax, fr.Fn.Name, d.in.Callee())
				break run
			}
			for i, a := range args {
				callee.Args[i] = fr.regVal(a)
			}
			fr = callee
		case mach.RET:
			v := fr.val(d.ak, d.a)
			vm.sp = fr.Base
			vm.stack = vm.stack[:len(vm.stack)-1]
			if len(vm.stack) == 0 {
				vm.halted, vm.retVal = true, v
				break run
			}
			vm.stack[len(vm.stack)-1].set(fr.retK, fr.retR, v)
			fr = vm.stack[len(vm.stack)-1]
		default:
			// A fresh error variable, so err is not carried around the loop.
			next, e := vm.slow(fr, d, pc)
			if e != nil {
				err = e
				break run
			}
			pc = next
			continue
		}
		code, r, mask, pc = fr.code.code, fr.regs, bs.mask(fr.code), int(fr.pc)
	}
	if !vm.halted {
		vm.stack[len(vm.stack)-1].pc = int32(pc)
	}
	vm.Cycles, vm.Steps = cycles, vm.Steps-left
	return stopped, err
}

// slow executes d in frame fr through Val: every slot but CALL and RET that
// exec's inline switch leaves to it. pc is the pc after d; slow returns the
// next pc to execute.
func (vm *VM) slow(fr *Frame, d *dinstr, pc int) (int, error) {
	if d.xop == opMalformed {
		return pc, fmt.Errorf("vm: malformed instruction in %s: %v (%s)", fr.Fn.Name, checkInstr(fr.code, d.in), d.in)
	}
	switch d.op {
	case mach.MOV:
		fr.set(d.dk, d.dst, fr.val(d.ak, d.a))
	case mach.GETP:
		if p := d.in.ParamIdx(); p < len(fr.Args) {
			fr.set(d.dk, d.dst, fr.Args[p])
		}
	case mach.LA:
		switch d.sym {
		case symFrame:
			fr.set(d.dk, d.dst, Val{I: fr.Base + d.off})
		case symGlobal:
			fr.set(d.dk, d.dst, Val{I: d.off})
		default:
			return pc, fmt.Errorf("vm: la of unknown symbol %s", fr.Fn.ObjName(d.in.Sym))
		}
	case mach.LW, mach.FLW, mach.SW, mach.FSW, mach.LWFP, mach.FLWFP, mach.SWFP, mach.FSWFP:
		addr := fr.Base + d.off // the spill forms address the frame
		if d.op < mach.LWFP {
			addr = fr.ival(d.ak, d.a) + d.off
		}
		if addr < 0 || addr/4 >= int64(len(vm.mem)) {
			return pc, fmt.Errorf("vm: %s out of bounds at %d (stmt %d in %s)", d.op, addr, d.in.Stmt, fr.Fn.Name)
		}
		switch w := &vm.mem[addr/4]; d.op {
		case mach.LW:
			fr.set(d.dk, d.dst, Val{I: int64(int32(*w))})
		case mach.LWFP:
			fr.set(d.dk, d.dst, Val{I: *w})
		case mach.FLW, mach.FLWFP:
			fr.set(d.dk, d.dst, Val{F: f64(*w), IsF: true})
		case mach.SW:
			*w = int64(int32(fr.ival(d.bk, d.b)))
		case mach.SWFP:
			*w = fr.ival(d.bk, d.b)
		default:
			*w = bits(fr.fval(d.bk, d.b))
		}
	case mach.BNEZ:
		if c := fr.val(d.ak, d.a); c.I != 0 || c.F != 0 {
			return int(d.t0), nil
		}
		return int(d.t1), nil
	case mach.PRINT:
		return pc, vm.doPrint(fr, d.in)
	default:
		return pc, vm.alu(fr, d)
	}
	return pc, nil
}

// ib is the value of B in a fast form: a register's slot, or the
// immediate or float bits (0 when B is absent).
func (d *dinstr) ib(r []int64) int64 {
	if d.bk >= kIReg {
		return r[d.b]
	}
	return d.b
}

// ia is ib for A.
func (d *dinstr) ia(r []int64) int64 {
	if d.ak >= kIReg {
		return r[d.a]
	}
	return d.a
}

func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// doPrint renders one PRINT into the output buffer, enforcing MaxOutput.
// Numbers format exactly as fmt's %d and %g would (strconv with the 'g'
// shortest form is the same rendering, without fmt's interface and state
// allocations). The limit is checked piece by piece, so output up to the
// limit is retained and the trip point is deterministic.
func (vm *VM) doPrint(fr *Frame, in *mach.Instr) error {
	limit := vm.MaxOutput
	if limit == 0 {
		limit = DefaultMaxOutput
	}
	var scratch [32]byte
	for _, a := range in.PrintFmt() {
		var s string
		if a.IsStr {
			s = a.Str
		} else {
			v := fr.regVal(a.Val)
			if v.IsF {
				s = string(strconv.AppendFloat(scratch[:0], v.F, 'g', -1, 64))
			} else {
				s = string(strconv.AppendInt(scratch[:0], v.I, 10))
			}
		}
		if limit > 0 && int64(vm.out.Len())+int64(len(s)) > limit {
			return fmt.Errorf("%w (%d bytes, stmt %d in %s)", ErrOutputLimit, limit, in.Stmt, fr.Fn.Name)
		}
		vm.out.WriteString(s)
	}
	return nil
}

// alu executes an ALU or conversion instruction through Val: every
// operation and operand form outside exec's integer fast form.
func (vm *VM) alu(fr *Frame, d *dinstr) error {
	v, err := aluVal(d.op, fr.val(d.ak, d.a), fr.val(d.bk, d.b))
	if err != nil {
		return fmt.Errorf("vm: %w (stmt %d in %s)", err, d.in.Stmt, fr.Fn.Name)
	}
	fr.set(d.dk, d.dst, v)
	return nil
}

func aluVal(op mach.Opcode, a, b Val) (Val, error) {
	ai, bi := a.I, b.I
	af, bf := a.F, b.F
	if !a.IsF {
		af = float64(a.I)
	}
	if !b.IsF {
		bf = float64(b.I)
	}
	w := func(x int64) Val { return Val{I: int64(int32(x))} }
	bl := func(c bool) Val { return Val{I: b2i(c)} }
	switch op {
	case mach.ADD:
		return w(ai + bi), nil
	case mach.SUB:
		return w(ai - bi), nil
	case mach.MUL:
		return w(ai * bi), nil
	case mach.DIV:
		if bi == 0 {
			return Val{}, fmt.Errorf("integer division by zero")
		}
		return w(ai / bi), nil
	case mach.REM:
		if bi == 0 {
			return Val{}, fmt.Errorf("integer remainder by zero")
		}
		return w(ai % bi), nil
	case mach.SHL:
		return w(ai << (uint(bi) & 31)), nil
	case mach.SHR:
		return w(ai >> (uint(bi) & 31)), nil
	case mach.OR:
		return w(ai | bi), nil
	case mach.XOR:
		return w(ai ^ bi), nil
	case mach.SEQ:
		return bl(ai == bi), nil
	case mach.SNE:
		return bl(ai != bi), nil
	case mach.SLT:
		return bl(ai < bi), nil
	case mach.SLE:
		return bl(ai <= bi), nil
	case mach.SGT:
		return bl(ai > bi), nil
	case mach.SGE:
		return bl(ai >= bi), nil
	case mach.NEG:
		return w(-ai), nil
	case mach.NOT:
		return bl(ai == 0 && !a.IsF), nil
	case mach.FADD:
		return Val{F: af + bf, IsF: true}, nil
	case mach.FSUB:
		return Val{F: af - bf, IsF: true}, nil
	case mach.FMUL:
		return Val{F: af * bf, IsF: true}, nil
	case mach.FDIV:
		if bf == 0 {
			return Val{}, fmt.Errorf("float division by zero")
		}
		return Val{F: af / bf, IsF: true}, nil
	case mach.FNEG:
		return Val{F: -af, IsF: true}, nil
	case mach.FSEQ:
		return bl(af == bf), nil
	case mach.FSNE:
		return bl(af != bf), nil
	case mach.FSLT:
		return bl(af < bf), nil
	case mach.FSLE:
		return bl(af <= bf), nil
	case mach.FSGT:
		return bl(af > bf), nil
	case mach.FSGE:
		return bl(af >= bf), nil
	case mach.CVTIF:
		return Val{F: float64(ai), IsF: true}, nil
	case mach.CVTFI:
		return w(int64(af)), nil
	}
	return Val{}, fmt.Errorf("unimplemented opcode %s", op)
}
