package compile

import (
	"unsafe"

	"repro/internal/ir"
	"repro/internal/mach"
)

// SizeBytes estimates the resident memory cost of a compiled artifact for
// the store's byte-budget accounting: the retained source text, a
// front-end factor for the AST/semantic objects the machine code keeps
// alive, and a structural walk of the machine program. It is an estimate
// (Go has no cheap deep-size primitive), deliberately on the generous
// side so a budget is a real ceiling rather than a suggestion.
func (r *Result) SizeBytes() int64 {
	var n int64
	if r.File != nil {
		// Source text plus the per-line index and the parsed AST +
		// object graph, which empirically run a small multiple of the
		// text size for MiniC programs.
		n += int64(len(r.File.Content)) * 8
	}
	if r.Mach != nil {
		n += sizeOfProgram(r.Mach)
	}
	return n
}

// Machine code is charged by its real layout: an instruction's hot record
// (Sizeof(mach.Instr)) plus slack for its block's pointer to it and heap
// rounding, and, on the instructions that have one, the cold record rounded
// up to its heap size class (classes are 16 bytes apart up to 256 B).
const (
	instrBase = int64(unsafe.Sizeof(mach.Instr{})) + 16
	coldBase  = (int64(unsafe.Sizeof(mach.Cold{})) + 15) &^ 15
	blockBase = int64(unsafe.Sizeof(mach.Block{})) + 16
	funcBase  = int64(unsafe.Sizeof(mach.Func{})) + 16
	// stubBase is a stub's deferred-body record (56 bytes, in a 64-byte
	// size class) plus slack for the records a read-back program holds
	// once (its decoder closure and its Result).
	stubBase = 80
	opdSize  = int64(unsafe.Sizeof(mach.Opd{}))
	locSize  = int64(unsafe.Sizeof(mach.Loc{}))
)

func sizeOfProgram(p *mach.Program) int64 {
	n := int64(unsafe.Sizeof(*p))
	n += int64(len(p.Globals)+cap(p.Funcs)) * 8
	n += mach.HeapBytes(int64(cap(p.GlobalOff)) * 8)
	n += mach.HeapBytes(int64(cap(p.GlobalInit)) * int64(unsafe.Sizeof(ir.Operand{})))
	for _, f := range p.Funcs {
		n += sizeOfFunc(f)
	}
	return n
}

// sizeOfFunc is a function's record, plus, on a stub, its deferred-body
// record and encoding (its share of the function list a read-back program
// retains), plus its body if that is in memory.
func sizeOfFunc(f *mach.Func) int64 {
	n := funcBase + int64(len(f.Name))
	if enc := f.Encoding(); enc != nil {
		n += stubBase + int64(cap(enc))
	}
	return n + sizeOfBody(f)
}

// sizeOfBody is the cost of a function's body: what a stub's Load adds.
func sizeOfBody(f *mach.Func) int64 {
	n := mach.HeapBytes(int64(cap(f.FrameOff)) * 8)
	n += mach.HeapBytes(int64(cap(f.VarLoc)) * locSize)
	for _, b := range f.Blocks {
		n += blockBase
		n += int64(len(b.Succs)+len(b.Preds)) * 8
		n += int64(len(b.Instrs)) * 8
		for _, in := range b.Instrs {
			n += sizeOfInstr(in)
		}
	}
	return n
}

func sizeOfInstr(in *mach.Instr) int64 {
	n := instrBase
	c := in.Cold
	if c == nil {
		return n
	}
	n += coldBase
	n += int64(len(c.Callee))
	n += int64(len(c.Args)) * opdSize
	for _, pa := range c.PrintFmt {
		n += int64(unsafe.Sizeof(pa)) + int64(len(pa.Str))
	}
	n += int64(len(c.InsertedBy))
	return n
}
