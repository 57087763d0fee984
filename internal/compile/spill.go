package compile

// Artifact serialization for the store's disk tier.
//
// A spill file carries only what the back end decided: for each function,
// its final machine code with all of its debugging annotations (statement
// tags, hoist/sunk/inserted marks, markers, recovery links, DefObj
// variable tags) and its frame-offset and variable-location tables, plus
// the source text and config they came from. Everything the front end
// determines is rebuilt, not stored: decoding replays the deterministic
// front end (sem.CheckSource: parse + check) over the source, or takes
// the checked program a caller offers for the same file name and text (a
// sibling artifact of the same source under another config), and builds
// the program shell — the globals, their layout and data size, and their
// initializers — with the compiler's own ir.BuildGlobals and
// lower.NewProgram. Function i's body is bound to the front end's
// declaration i, which supplies its name, locals and NumVars. AST and
// semantic objects are not serialized; instructions refer to them by their
// dense per-function (local) or per-program (global) object IDs, the
// mach.ObjRef an instruction holds in memory. Optimization, lowering,
// register allocation and scheduling, which is where compile time goes,
// are skipped.
//
// A spill file is sha256(payload) followed by the payload: a header
// (spillVersion, name, source, config), then exactly one body per declared
// function, in declaration order (enc.fn/dec.fn). The sum is checked
// before the decoder reads a byte, so a flipped bit anywhere in the file
// is rejected and the caller falls back to a full compile.
//
// The decoder fails closed and is canonical: every read is bounds-checked,
// a count may not exceed the bytes that remain, every object ref,
// successor and entry index is range-checked, a function's tables must
// have a row per local (no locations before allocation) inside its frame
// and register files, and an overlong varint, a presence bit over a zero
// value, an unknown flag bit, an out-of-range opcode or kind, a missing
// body and trailing bytes are all errors.
// So any payload it accepts re-encodes to the same bytes — a test and fuzz
// property, not a runtime check.
//
// All of these checks run when the file is read: DecodeSpill decodes every
// function body, and refuses the file if any body is bad. It then keeps
// only a stub of each function (mach.Program.Defer): the fields that need
// no body, and the function's byte range in a copy of the payload's
// function list. A session decodes a body on first use (mach.Func.Load),
// with the same dec.fn; since the bytes passed that decode once, a Load
// cannot fail. A session touches a few of a program's functions, so a
// read-back artifact holds, and is charged for, far less than its whole
// machine code.
//
// The rehydrated Result carries File, Sem and Mach; its IR field is nil
// (the optimized IR is not part of the debuggable artifact).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/sem"
)

// spillVersion guards the payload format; bump on any change to it, or to
// what the pipeline emits for the same key.
const spillVersion = 9

// EncodeSpill serializes a compiled artifact for the disk tier. The
// source text and configuration ride along (they are the artifact's
// identity and drive the front-end replay on load). The program's
// functions must be its front end's, in declaration order: that order is
// all that binds a body to its declaration.
func EncodeSpill(cfg Config, res *Result) ([]byte, error) {
	mp := res.Mach
	if len(mp.Funcs) != len(res.Sem.Funcs) {
		return nil, fmt.Errorf("spill: %d functions for the front end's %d", len(mp.Funcs), len(res.Sem.Funcs))
	}
	for i, f := range mp.Funcs {
		if f.Decl != res.Sem.Funcs[i] {
			return nil, fmt.Errorf("spill: function %d is %s, not the front end's %s", i, f.Name, res.Sem.Funcs[i].Name)
		}
		f.Load()
	}
	e := &enc{b: make([]byte, sha256.Size, sha256.Size+len(res.File.Content)+encSizeHint(mp.Funcs...))}
	e.uint(spillVersion)
	e.str(res.File.Name)
	e.str(res.File.Content)
	e.uint(configBits(cfg))
	for _, f := range mp.Funcs {
		e.fn(f)
	}
	if e.err != nil {
		return nil, e.err
	}
	sum := sha256.Sum256(e.b[sha256.Size:])
	copy(e.b, sum[:])
	return e.b, nil
}

// encSizeHint estimates the encoded size of fs's machine code (about 12
// bytes an instruction, rounded up so one allocation usually suffices).
func encSizeHint(fs ...*mach.Func) int {
	n := 0
	for _, f := range fs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return 16 * n
}

// DecodeSpill verifies a serialized artifact's sum and reconstructs it,
// replaying the front end over the embedded source to re-establish AST and
// object identity and the program shell. It returns the Result, the
// configuration it was compiled under, and the name/source identity.
func DecodeSpill(data []byte) (res *Result, name, src string, cfg Config, err error) {
	return DecodeSpillFront(data, nil)
}

// DecodeSpillFront is DecodeSpill with an offered front end: front, when
// non-nil, is called with the header's name and source and may return a
// checked program to use instead of replaying the front end (nil declines).
// The offer is taken only if its file name and text equal the header's —
// the checker is deterministic, so such a program has the very objects and
// IDs a replay would build; any other offer is ignored and the front end
// replayed. The decoded Result shares the offered program; nothing
// downstream of the checker mutates one.
func DecodeSpillFront(data []byte, front func(name, src string) *sem.Program) (res *Result, name, src string, cfg Config, err error) {
	if len(data) < sha256.Size || sha256.Sum256(data[sha256.Size:]) != [sha256.Size]byte(data) {
		return nil, "", "", Config{}, fmt.Errorf("spill: checksum mismatch (stale or corrupt artifact)")
	}
	d := &dec{b: data[sha256.Size:]}
	if v := d.uint(); d.err == nil && v != spillVersion {
		return nil, "", "", Config{}, fmt.Errorf("spill: version %d, want %d", v, spillVersion)
	}
	name, src = d.str(), d.str()
	cfg = d.config()
	if d.err != nil {
		return nil, "", "", Config{}, d.err
	}
	var p *sem.Program
	if front != nil {
		if q := front(name, src); q != nil && q.File.Source.Name == name && q.File.Source.Content == src {
			p = q
		}
	}
	if p == nil {
		if p, err = sem.CheckSource(name, src); err != nil {
			return nil, "", "", Config{}, fmt.Errorf("spill: front-end replay: %w", err)
		}
	}
	// The shell is the compiler's own, over this front end; the payload
	// holds one body per declared function, in declaration order.
	mp := lower.NewProgram(ir.BuildGlobals(p))
	mp.Funcs = make([]*mach.Func, len(p.Funcs))
	d.globals = p.Globals
	// The function list is kept, in a copy of its own, as the stubs'
	// encodings: each body is decoded in full here and dropped, then decoded
	// again on its first Load. Each stub's slice ends at its own last byte
	// but the last one's, which keeps the copy's spare capacity, so the
	// stubs' capacities add up to the allocation they retain (sizeOfFunc).
	body := bytes.Clone(d.b)
	d.b = body
	decode := bodyDecoder(p.Globals)
	for i, decl := range p.Funcs {
		at := len(body) - len(d.b)
		f := d.fn(decl)
		if d.err != nil {
			break
		}
		end := len(body) - len(d.b)
		limit := end
		if i == len(p.Funcs)-1 {
			limit = cap(body)
		}
		mp.Defer(f, body[at:end:limit], decode)
		mp.Funcs[i] = f
	}
	if d.end(); d.err != nil {
		return nil, "", "", Config{}, d.err
	}
	return &Result{File: p.File.Source, Sem: p, Mach: mp}, name, src, cfg, nil
}

// bodyDecoder returns the mach.Program.Defer decoder of a spill file's
// stubs: it decodes a stub's encoding with dec.fn against the stub's
// declaration and the front end's globals, as the read did. The encoding
// decoded without error when the file was read, and decoding is
// deterministic, so a failure here is a broken invariant, not bad input.
func bodyDecoder(globals []*ast.Object) func(*mach.Func, []byte) (*mach.Func, int64) {
	return func(stub *mach.Func, enc []byte) (*mach.Func, int64) {
		d := &dec{b: enc, globals: globals}
		f := d.fn(stub.Decl)
		if d.end(); d.err != nil {
			panic("compile: a verified function body fails to decode: " + d.err.Error())
		}
		return f, sizeOfBody(f)
	}
}

// configFlags lists every Config field in its bit order. Config is all
// flags; a field of any other type needs its own encoding.
func configFlags(c *Config) [16]*bool {
	o := &c.Opt
	return [...]*bool{
		&c.RegAlloc, &c.Sched,
		&o.SROA, &o.ConstFold, &o.ConstProp, &o.CopyProp, &o.AssignProp,
		&o.PRE, &o.LICM, &o.PDCE, &o.DCE, &o.Strength, &o.Unroll,
		&o.LoopInvert, &o.BranchOpt, &o.NoMarkers,
	}
}

func configBits(c Config) uint64 {
	var bits uint64
	for i, f := range configFlags(&c) {
		if *f {
			bits |= 1 << i
		}
	}
	return bits
}

func (d *dec) config() Config {
	var c Config
	flags := configFlags(&c)
	bits := d.uint()
	if bits>>len(flags) != 0 {
		d.fail("unknown config bits %#x", bits)
		return Config{}
	}
	for i, f := range flags {
		*f = bits&(1<<i) != 0
	}
	return c
}

// Object references are written as their mach.ObjRef (mach.RefOf): nil
// is 0, a local (or param) 2*ID+1, a global 2*ID+2. Locals resolve
// through FuncDecl.Locals and globals through sem.Program.Globals, both of
// which index by the IDs the checker assigns deterministically — so a
// front-end replay of the same source rebuilds the same reference space.

// encObj is o's ref less one (nil is -1), the form function keys hash.
func encObj(o *ast.Object) int32 { return int32(mach.RefOf(o)) - 1 }

// enc appends the payload encoding to b. Its error is sticky: the first
// value the format cannot represent fails the whole encode.
type enc struct {
	b        []byte
	err      error
	blockIdx map[*mach.Block]int // current function's blocks, by position
}

func (e *enc) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("spill: "+format, args...)
	}
}

func (e *enc) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) int(v int64)   { e.b = binary.AppendVarint(e.b, v) }

// ref writes an object ref, as an instruction holds it.
func (e *enc) ref(r mach.ObjRef) {
	if r < 0 {
		e.fail("object ref %d out of range", r)
	}
	e.uint(uint64(r))
}

func (e *enc) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec reads a payload. Its error is sticky: after the first failure every
// read returns a zero value and consumes nothing, so loops bounded by a
// count end at once.
type dec struct {
	b       []byte
	err     error
	globals []*ast.Object // by ID
	locals  []*ast.Object // by ID, current function
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("spill: "+format, args...)
	}
	d.b = nil
}

// uint reads a minimally encoded uvarint.
func (d *dec) uint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zigzag varint (binary.AppendVarint's encoding).
func (d *dec) int() int64 {
	u := d.uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// nzInt reads a varint that a presence bit promised is non-zero.
func (d *dec) nzInt() int64 {
	v := d.int()
	if v == 0 {
		d.fail("presence bit over a zero value")
	}
	return v
}

// nzInt32 is nzInt for a field held as an int32 (a register number, a
// statement or instruction index): a wider value is an error, not a
// truncation, so a decoded field re-encodes to the bytes it came from.
func (d *dec) nzInt32() int32 {
	v := d.nzInt()
	if v != int64(int32(v)) {
		d.fail("value %d out of int32 range", v)
	}
	return int32(v)
}

func (d *dec) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *dec) f64() float64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count, which may not exceed the bytes that
// remain: every element takes at least one.
func (d *dec) count() int {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// nzCount reads a count that a presence bit promised is non-zero.
func (d *dec) nzCount() int {
	n := d.count()
	if n == 0 {
		d.fail("presence bit over an empty list")
	}
	return n
}

func (d *dec) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// nzStr reads a string that a presence bit promised is non-empty.
func (d *dec) nzStr() string {
	s := d.str()
	if s == "" {
		d.fail("presence bit over an empty string")
	}
	return s
}

// end rejects trailing bytes.
func (d *dec) end() {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
}

// resolve maps a wire object ref (a mach.ObjRef; 0 is nil) to the replayed
// front end's object.
func (d *dec) resolve(u uint64) *ast.Object {
	if u == 0 {
		return nil
	}
	id := (u - 1) / 2
	if u%2 == 0 {
		if id >= uint64(len(d.globals)) {
			d.fail("global object #%d out of range", id)
			return nil
		}
		return d.globals[id]
	}
	if id >= uint64(len(d.locals)) {
		d.fail("local object #%d out of range", id)
		return nil
	}
	return d.locals[id]
}

// nzRef reads an instruction's object ref, which a presence bit promised
// is non-zero. It stays a ref, but must name an object of the replayed
// front end, as resolve checks.
func (d *dec) nzRef() mach.ObjRef {
	u := d.uint()
	if u == 0 {
		d.fail("presence bit over a nil object")
	}
	if d.resolve(u); d.err != nil {
		return 0
	}
	return mach.ObjRef(u)
}

// nzF64 reads a float that a presence bit promised has non-zero bits.
func (d *dec) nzF64() float64 {
	v := d.f64()
	if math.Float64bits(v) == 0 {
		d.fail("presence bit over a zero value")
	}
	return v
}

// mach.Opd header bits: the kind in bits 0–1, then the register class and
// which fields follow.
const (
	opdKindMask = 3
	opdFloat    = 1 << 2
	opdR        = 1 << 3
	opdImm      = 1 << 4
	opdF        = 1 << 5
	opdBits     = 1 << 6 // first unknown bit
)

func isZeroOpd(o mach.Opd) bool {
	return o == mach.Opd{}
}

func (e *enc) opd(o mach.Opd) {
	if o.Kind < 0 || o.Kind > mach.FImm || o.Class < 0 || o.Class > mach.FloatClass {
		e.fail("operand kind %d class %d out of range", o.Kind, o.Class)
	}
	h := len(e.b)
	e.b = append(e.b, byte(o.Kind))
	if o.Class == mach.FloatClass {
		e.b[h] |= opdFloat
	}
	if o.R != 0 {
		e.b[h] |= opdR
		e.int(int64(o.R))
	}
	// A float immediate's bits, held in Imm, go on the wire as the float.
	if o.Imm != 0 && o.Kind != mach.FImm {
		e.b[h] |= opdImm
		e.int(o.Imm)
	}
	if o.Imm != 0 && o.Kind == mach.FImm {
		e.b[h] |= opdF
		e.b = binary.LittleEndian.AppendUint64(e.b, uint64(o.Imm))
	}
}

func (d *dec) opd() mach.Opd {
	h := d.byte()
	if h >= opdBits {
		d.fail("unknown operand bits %#x", h)
		return mach.Opd{}
	}
	o := mach.Opd{Kind: mach.OpdKind(h & opdKindMask)}
	if h&opdFloat != 0 {
		o.Class = mach.FloatClass
	}
	if h&opdR != 0 {
		o.R = d.nzInt32()
	}
	// Imm holds an integer, or a float immediate's bits: never both.
	if h&opdImm != 0 {
		if o.Kind == mach.FImm {
			d.fail("integer bits on a float immediate")
		}
		o.Imm = d.nzInt()
	}
	if h&opdF != 0 {
		if o.Kind != mach.FImm {
			d.fail("float bits on a %d operand", o.Kind)
		}
		o.Imm = int64(math.Float64bits(d.nzF64()))
	}
	return o
}

// nzOpd reads an operand that a presence bit promised is non-zero.
func (d *dec) nzOpd() mach.Opd {
	o := d.opd()
	if isZeroOpd(o) {
		d.fail("presence bit over a zero operand")
	}
	return o
}

// mach.Loc header bits: the kind in bits 0–1, then the register class and
// which fields follow.
const (
	locKindMask = 3
	locFloat    = 1 << 2
	locR        = 1 << 3
	locOff      = 1 << 4
	locBits     = 1 << 5 // first unknown bit
)

func (e *enc) loc(l mach.Loc) {
	if l.Kind < 0 || l.Kind > mach.LocSpill || l.Class < 0 || l.Class > mach.FloatClass {
		e.fail("location kind %d class %d out of range", l.Kind, l.Class)
	}
	h := len(e.b)
	e.b = append(e.b, byte(l.Kind))
	if l.Class == mach.FloatClass {
		e.b[h] |= locFloat
	}
	if l.R != 0 {
		e.b[h] |= locR
		e.int(int64(l.R))
	}
	if l.Off != 0 {
		e.b[h] |= locOff
		e.int(l.Off)
	}
}

// loc reads a variable location in a frame of frameSize bytes: a
// register of its class's file, a frame slot, or none; a field its kind
// does not use must be zero.
func (d *dec) loc(frameSize int64) mach.Loc {
	h := d.byte()
	if h >= locBits || h&locKindMask > byte(mach.LocSpill) {
		d.fail("bad location header %#x", h)
		return mach.Loc{}
	}
	l := mach.Loc{Kind: mach.LocKind(h & locKindMask)}
	if h&locFloat != 0 {
		l.Class = mach.FloatClass
	}
	if h&locR != 0 {
		l.R = int(d.nzInt())
	}
	if h&locOff != 0 {
		l.Off = d.nzInt()
	}
	regs := mach.NumIntRegs
	if l.Class == mach.FloatClass {
		regs = mach.NumFloatRegs
	}
	ok := l.R == 0 && l.Off == 0 // LocNone
	switch l.Kind {
	case mach.LocReg:
		ok = l.R >= 0 && l.R < regs && l.Off == 0
	case mach.LocSpill:
		ok = l.R == 0 && inFrame(l.Off, frameSize)
	}
	if !ok {
		d.fail("location %s outside a %d-byte frame and the register files", l, frameSize)
	}
	return l
}

// inFrame reports whether off is the offset of a 4-byte slot in a frame
// of size bytes.
func inFrame(off, size int64) bool { return off >= 0 && off%4 == 0 && off < size }

// Function flag bits.
const (
	fnAllocated = 1 << iota
	fnScheduled
	fnBits // first unknown bit
)

// fn writes one function: one element of a spill file's function list.
func (e *enc) fn(f *mach.Func) {
	var flags byte
	if f.Allocated {
		flags |= fnAllocated
	}
	if f.Scheduled {
		flags |= fnScheduled
	}
	e.b = append(e.b, flags)
	e.int(int64(f.NumVregs))
	e.int(f.FrameSize)
	e.uint(uint64(len(f.FrameOff)))
	for _, off := range f.FrameOff {
		e.int(off)
	}
	e.uint(uint64(len(f.VarLoc)))
	for _, l := range f.VarLoc {
		e.loc(l)
	}
	if e.blockIdx == nil {
		e.blockIdx = make(map[*mach.Block]int, len(f.Blocks))
	}
	clear(e.blockIdx)
	for i, b := range f.Blocks {
		e.blockIdx[b] = i
	}
	e.uint(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		e.int(int64(b.ID))
		e.int(int64(b.LoopDepth))
		e.uint(uint64(len(b.Succs)))
		for _, s := range b.Succs {
			idx, ok := e.blockIdx[s]
			if !ok {
				e.fail("successor of L%d not in Blocks of %s", b.ID, f.Name)
			}
			e.uint(uint64(idx))
		}
		e.uint(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			e.instr(in)
		}
	}
	entry := 0 // index+1; 0 is no entry block
	if f.Entry != nil {
		idx, ok := e.blockIdx[f.Entry]
		if !ok {
			e.fail("entry block of %s not in Blocks", f.Name)
		}
		entry = idx + 1
	}
	e.uint(uint64(entry))
}

// fn reads the body of the function decl declares, binding it to decl
// and to the front end's objects; decl supplies the name and the locals,
// whose count is the function's NumVars.
func (d *dec) fn(decl *ast.FuncDecl) *mach.Func {
	d.locals = decl.Locals
	flags := d.byte()
	if flags >= fnBits {
		d.fail("unknown function flags %#x", flags)
		return nil
	}
	name, nl := decl.Name, len(decl.Locals)
	f := &mach.Func{
		Name: name, Decl: decl, Globals: d.globals,
		Allocated: flags&fnAllocated != 0, Scheduled: flags&fnScheduled != 0,
		NumVregs: int(d.int()), NumVars: nl, FrameSize: d.int(),
	}
	// The tables are indexed by local ID: a frame offset per local, and a
	// location per local once allocated, none before.
	nloc := 0
	if f.Allocated {
		nloc = nl
	}
	if n := d.count(); n != nl || f.FrameSize < 0 {
		d.fail("%s: %d frame offsets and a %d-byte frame for %d locals", name, n, f.FrameSize, nl)
		return nil
	}
	f.FrameOff = make([]int64, nl)
	for i := range f.FrameOff {
		if f.FrameOff[i] = d.int(); f.FrameOff[i] != -1 && !inFrame(f.FrameOff[i], f.FrameSize) {
			d.fail("%s's frame offset %d outside its %d-byte frame", name, f.FrameOff[i], f.FrameSize)
		}
	}
	if n := d.count(); n != nloc {
		d.fail("%s has %d variable locations, want %d", name, n, nloc)
	}
	f.VarLoc = make([]mach.Loc, nloc)
	for i := range f.VarLoc {
		f.VarLoc[i] = d.loc(f.FrameSize)
	}
	n := d.count()
	blocks := make([]mach.Block, n)
	f.Blocks = make([]*mach.Block, n)
	for i := range blocks {
		f.Blocks[i] = &blocks[i]
	}
	for _, b := range f.Blocks {
		if d.err != nil {
			return nil
		}
		b.ID = int(d.int())
		b.LoopDepth = int(d.int())
		if ns := d.count(); ns > 0 {
			b.Succs = make([]*mach.Block, ns)
			for j := range b.Succs {
				b.Succs[j] = d.block(f.Blocks, d.uint())
			}
		}
		if ni := d.count(); ni > 0 {
			slab := make([]mach.Instr, ni)
			b.Instrs = make([]*mach.Instr, ni)
			for j := range slab {
				d.instr(&slab[j])
				b.Instrs[j] = &slab[j]
			}
		}
	}
	if entry := d.uint(); entry > 0 {
		f.Entry = d.block(f.Blocks, entry-1)
	}
	if d.err != nil {
		return nil
	}
	f.RecomputePreds()
	return f
}

// block range-checks a block index.
func (d *dec) block(blocks []*mach.Block, idx uint64) *mach.Block {
	if idx >= uint64(len(blocks)) {
		d.fail("block index %d out of range", idx)
		return nil
	}
	return blocks[idx]
}

// Instruction presence bits, commonest first so a typical mask fits in
// two varint bytes. A field is written only when its bit is set, and its
// bit is set only when the field is non-zero.
const (
	inDst = 1 << iota
	inA
	inB
	inStmt
	inOrigIdx
	inPreSched
	inDefObj
	inOff
	inSym
	inCallee
	inArgs
	inPrintFmt
	inParamIdx
	inMarkObj
	inMarkAlias
	inHoisted
	inSunk
	inInsertedBy
	inReplacedVar
	inRecover
	inBits // first unknown bit

	// inCold is the fields held in an instruction's cold record.
	inCold = inCallee | inArgs | inPrintFmt | inParamIdx | inMarkObj | inMarkAlias | inInsertedBy | inRecover
)

// PrintArg flag bits.
const (
	paIsStr = 1 << iota
	paStr
	paVal
	paBits // first unknown bit
)

// noCold stands in for an absent cold record when encoding.
var noCold mach.Cold

func (e *enc) instr(in *mach.Instr) {
	// MARKAVAIL is the last opcode.
	if in.Op < 0 || in.Op > mach.MARKAVAIL {
		e.fail("opcode %d out of range", in.Op)
	}
	e.b = append(e.b, byte(in.Op))
	// The fields go first, into room left for the mask (20 bits, at most
	// three varint bytes); the mask is then written and the gap closed.
	at := len(e.b)
	e.b = append(e.b, 0, 0, 0)
	var m uint64
	if !isZeroOpd(in.Dst) {
		m |= inDst
		e.opd(in.Dst)
	}
	if !isZeroOpd(in.A) {
		m |= inA
		e.opd(in.A)
	}
	if !isZeroOpd(in.B) {
		m |= inB
		e.opd(in.B)
	}
	if in.Stmt != 0 {
		m |= inStmt
		e.int(int64(in.Stmt))
	}
	if in.OrigIdx != 0 {
		m |= inOrigIdx
		e.int(int64(in.OrigIdx))
	}
	if in.PreSched != 0 {
		m |= inPreSched
		e.int(int64(in.PreSched))
	}
	if in.DefObj != 0 {
		m |= inDefObj
		e.ref(in.DefObj)
	}
	if in.Off != 0 {
		m |= inOff
		e.int(in.Off)
	}
	if in.Sym != 0 {
		m |= inSym
		e.ref(in.Sym)
	}
	c := in.Cold
	if c == nil {
		c = &noCold
	}
	if c.Callee != "" {
		m |= inCallee
		e.str(c.Callee)
	}
	if len(c.Args) > 0 {
		m |= inArgs
		e.uint(uint64(len(c.Args)))
		for _, a := range c.Args {
			e.opd(a)
		}
	}
	if len(c.PrintFmt) > 0 {
		m |= inPrintFmt
		e.uint(uint64(len(c.PrintFmt)))
		for _, pa := range c.PrintFmt {
			flags := len(e.b)
			e.b = append(e.b, 0)
			if pa.IsStr {
				e.b[flags] |= paIsStr
			}
			if pa.Str != "" {
				e.b[flags] |= paStr
				e.str(pa.Str)
			}
			if !isZeroOpd(pa.Val) {
				e.b[flags] |= paVal
				e.opd(pa.Val)
			}
		}
	}
	if c.ParamIdx != 0 {
		m |= inParamIdx
		e.int(int64(c.ParamIdx))
	}
	if c.MarkObj != 0 {
		m |= inMarkObj
		e.ref(c.MarkObj)
	}
	if !isZeroOpd(c.MarkAlias) {
		m |= inMarkAlias
		e.opd(c.MarkAlias)
	}
	if in.Hoisted {
		m |= inHoisted
	}
	if in.Sunk {
		m |= inSunk
	}
	if c.InsertedBy != "" {
		m |= inInsertedBy
		e.str(c.InsertedBy)
	}
	if in.ReplacedVar != 0 {
		m |= inReplacedVar
		e.ref(in.ReplacedVar)
	}
	if r := c.Recover; r.Var != 0 {
		m |= inRecover
		e.ref(r.Var)
		e.int(r.A)
		e.int(r.B)
	}
	n := binary.PutUvarint(e.b[at:at+3], m)
	e.b = append(e.b[:at+n], e.b[at+3:]...)
}

func (d *dec) instr(in *mach.Instr) {
	op := d.byte()
	if op > byte(mach.MARKAVAIL) {
		d.fail("opcode %d out of range", op)
		return
	}
	in.Op = mach.Opcode(op)
	m := d.uint()
	if m >= inBits {
		d.fail("unknown instruction bits %#x", m)
		return
	}
	if m&inDst != 0 {
		in.Dst = d.nzOpd()
	}
	if m&inA != 0 {
		in.A = d.nzOpd()
	}
	if m&inB != 0 {
		in.B = d.nzOpd()
	}
	if m&inStmt != 0 {
		in.Stmt = d.nzInt32()
	}
	if m&inOrigIdx != 0 {
		in.OrigIdx = d.nzInt32()
	}
	if m&inPreSched != 0 {
		in.PreSched = d.nzInt32()
	}
	if m&inDefObj != 0 {
		in.DefObj = d.nzRef()
	}
	if m&inOff != 0 {
		in.Off = d.nzInt()
	}
	if m&inSym != 0 {
		in.Sym = d.nzRef()
	}
	// Every cold field's bit is in inCold, so c is set wherever one is read.
	var c *mach.Cold
	if m&inCold != 0 {
		c = new(mach.Cold)
		in.Cold = c
	}
	if m&inCallee != 0 {
		c.Callee = d.nzStr()
	}
	if m&inArgs != 0 {
		c.Args = make([]mach.Opd, d.nzCount())
		for i := range c.Args {
			c.Args[i] = d.opd()
		}
	}
	if m&inPrintFmt != 0 {
		c.PrintFmt = make([]mach.PrintArg, d.nzCount())
		for i := range c.PrintFmt {
			pa := &c.PrintFmt[i]
			flags := d.byte()
			if flags >= paBits {
				d.fail("unknown print argument flags %#x", flags)
				return
			}
			pa.IsStr = flags&paIsStr != 0
			if flags&paStr != 0 {
				pa.Str = d.nzStr()
			}
			if flags&paVal != 0 {
				pa.Val = d.nzOpd()
			}
		}
	}
	if m&inParamIdx != 0 {
		c.ParamIdx = d.nzInt32()
	}
	if m&inMarkObj != 0 {
		c.MarkObj = d.nzRef()
	}
	if m&inMarkAlias != 0 {
		c.MarkAlias = d.nzOpd()
	}
	in.Hoisted = m&inHoisted != 0
	in.Sunk = m&inSunk != 0
	if m&inInsertedBy != 0 {
		c.InsertedBy = d.nzStr()
	}
	if m&inReplacedVar != 0 {
		in.ReplacedVar = d.nzRef()
	}
	if m&inRecover != 0 {
		c.Recover = mach.Recovery{Var: d.nzRef(), A: d.int(), B: d.int()}
	}
}
