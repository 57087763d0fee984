package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// goldenOptIRDigest pins the IR the optimizer emits for the corpus
// workloads and randprog.Gen(1..200) at O1, O2 and every leave-one-out
// variant of bench.PassToggles. The machine-code digest sees only the
// configurations it compiles, so a pass interaction that shows up only
// when, say, PRE is off would move no other digest. Optimizer speed work
// must keep it.
const goldenOptIRDigest = "dfc8ed41fbec6778120cf18540ca3f531fd369af8b470c47d4469493e446e0ab"

// optVariants returns O1, O2 and O2 with each bench.PassToggles entry
// applied, in that order.
func optVariants() []opt.Options {
	vs := []opt.Options{opt.O1(), opt.O2()}
	for _, p := range bench.PassToggles {
		o := opt.O2()
		p.Disable(&o)
		vs = append(vs, o)
	}
	return vs
}

// corpusUnit is one golden program under one variant.
type corpusUnit struct {
	name, src string
	variant   int
	o         opt.Options
}

// corpusUnits lists the golden corpus in digest order: each workload, then
// randprog.Gen(1..200), each under every variant in turn.
func corpusUnits() []corpusUnit {
	var units []corpusUnit
	emit := func(name, src string) {
		for v, o := range optVariants() {
			units = append(units, corpusUnit{name, src, v, o})
		}
	}
	for _, name := range bench.Names {
		emit(name+".mc", bench.MustSource(name))
	}
	for seed := int64(1); seed <= 200; seed++ {
		emit(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed))
	}
	return units
}

// buildUnit runs the front end on u and returns its unoptimized functions.
func buildUnit(u corpusUnit) ([]*ir.Func, error) {
	sp, err := sem.CheckSource(u.name, u.src)
	if err != nil {
		return nil, err
	}
	return ir.Build(sp).Funcs, nil
}

// optimizeCorpus optimizes each golden program under each variant, in a
// fixed order, and calls fn with every optimized function (or with the
// front end's error and a nil function). It returns the number of
// program-configurations.
func optimizeCorpus(fn func(name string, variant int, f *ir.Func, err error)) int {
	units := corpusUnits()
	for _, u := range units {
		funcs, err := buildUnit(u)
		if err != nil {
			fn(u.name, u.variant, nil, err)
			continue
		}
		for _, f := range funcs {
			opt.RunFunc(f, u.o)
			fn(u.name, u.variant, f, nil)
		}
	}
	return len(units)
}

// optIRDigest hashes every field of the optimized IR of each golden
// program under each variant (or the front end's error).
func optIRDigest() (string, int) {
	h := sha256.New()
	n := optimizeCorpus(func(_ string, _ int, f *ir.Func, err error) {
		writeUnit(h, []*ir.Func{f}, err)
	})
	return hex.EncodeToString(h.Sum(nil)), n
}

// writeUnit writes a unit's share of the digest stream: the front end's
// error, or every function field by field.
func writeUnit(w io.Writer, funcs []*ir.Func, err error) {
	if err != nil {
		io.WriteString(w, "err "+err.Error()+"\n")
		return
	}
	for _, f := range funcs {
		hashFunc(w, f)
	}
}

// hashFunc writes f field by field. Instr.String omits some annotations
// (InsertedBy, OrigIdx, a MarkDead's alias operand, the annotations of
// non-assignment kinds), so every field is written explicitly. It appends
// rather than formatting with fmt because TestPassChangedResult hashes the
// function around every pass application; the text is the one
// goldenOptIRDigest pins, byte for byte.
func hashFunc(w io.Writer, f *ir.Func) {
	var d digestText
	d.str("func ", f.Name, " temps=").int(f.NumTemps).str(" locals=").int(len(f.Decl.Locals)).str(" frame=[")
	for _, o := range f.FrameObjects {
		d.obj(o).str(" ")
	}
	d.str("] entry=").int(f.Entry.ID).str("\n")
	for _, b := range f.Blocks {
		d.str("B").int(b.ID).str(" succs=").blocks(b.Succs).str(" preds=").blocks(b.Preds).str("\n")
		for _, in := range b.Instrs {
			d.str("  k=").int(int(in.Kind)).str(" op=").int(int(in.Op))
			d.str(" dst=").opd(f, in.Dst).str(" a=").opd(f, in.A).str(" b=").opd(f, in.B)
			d.str(" off=").int64(in.Off).str(" addr=").obj(in.AddrObj).str(" callee=").quote(in.Callee).str(" args=[")
			for _, a := range in.Args {
				d.opd(f, a).str(" ")
			}
			d.str("] print=[")
			for _, a := range in.PrintFmt {
				d.bool(a.IsStr).str(":").quote(a.Str).str(":").opd(f, a.Val).str(" ")
			}
			d.str("] param=").int(in.ParamIdx).str(" mark=").obj(in.MarkObj)
			d.str(" stmt=").int(in.Stmt).str(" orig=").int(in.OrigIdx)
			d.str(" hoisted=").bool(in.Ann.Hoisted).str(" sunk=").bool(in.Ann.Sunk)
			d.str(" by=").quote(in.Ann.InsertedBy).str(" replaced=").obj(in.Ann.ReplacedVar)
			if r := in.Ann.Recover; r != nil {
				d.str(" recover=").obj(r.Var).str(",").int64(r.A).str(",").int64(r.B)
			}
			d.str("\n")
		}
	}
	w.Write(d)
}

// digestText is hashFunc's text, built by appending.
type digestText []byte

func (d *digestText) str(ss ...string) *digestText {
	for _, s := range ss {
		*d = append(*d, s...)
	}
	return d
}

func (d *digestText) int(v int) *digestText     { return d.int64(int64(v)) }
func (d *digestText) int64(v int64) *digestText { *d = strconv.AppendInt(*d, v, 10); return d }
func (d *digestText) bool(v bool) *digestText   { *d = strconv.AppendBool(*d, v); return d }
func (d *digestText) quote(s string) *digestText {
	*d = strconv.AppendQuote(*d, s)
	return d
}

func (d *digestText) obj(o *ast.Object) *digestText {
	if o == nil {
		return d.str("-")
	}
	return d.str(o.Name, "#").int(o.ID)
}

// opd writes an operand as kind/type/temp/variable/int/float bits, the
// fields an operand had when goldenOptIRDigest was pinned: the temp number
// of a Temp, the variable of a Var, the value of a ConstI and the bits of a
// ConstF, each zero (or "-") for the other kinds.
func (d *digestText) opd(f *ir.Func, o ir.Operand) *digestText {
	var tid, i int64
	var bits uint64
	switch o.Kind {
	case ir.Temp:
		tid = int64(o.ID)
	case ir.ConstI:
		i = o.Int
	case ir.ConstF:
		bits = math.Float64bits(o.F())
	}
	d.int(int(o.Kind)).str("/").int(int(o.Ty)).str("/").int64(tid).str("/").obj(f.Obj(o)).str("/").int64(i).str("/")
	*d = strconv.AppendUint(*d, bits, 16)
	return d
}

func (d *digestText) blocks(bs []*ir.Block) *digestText {
	d.str("[")
	for i, b := range bs {
		if i > 0 {
			d.str(" ")
		}
		d.str("B").int(b.ID)
	}
	return d.str("]")
}

func TestOptIRDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes 208 programs under 12 configurations")
	}
	got, n := optIRDigest()
	if got != goldenOptIRDigest {
		t.Fatalf("optimized IR digest over %d program-configurations = %s, want %s\n"+
			"The optimizer's output changed. Re-pin goldenOptIRDigest only for an "+
			"intended output change, and state the reason in CHANGES.md.", n, got, goldenOptIRDigest)
	}
}

// TestMarkerAliasesWritten holds the optimizer to the invariant its marker
// bookkeeping keeps where a write is deleted: after RunFunc, every MarkDead
// alias names a value written on every path from the entry to the marker.
// An alias that can be reached unwritten would let the debugger recover a
// value the program never computed there.
func TestMarkerAliasesWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes 208 programs under 12 configurations")
	}
	bad := 0
	optimizeCorpus(func(name string, v int, f *ir.Func, err error) {
		if err != nil {
			return
		}
		for _, m := range unwrittenAliases(f) {
			if bad++; bad <= 10 {
				t.Errorf("%s variant %d, func %s: %s", name, v, f.Name, m)
			}
		}
	})
	if bad > 10 {
		t.Errorf("%d unwritten aliases in all", bad)
	}
}

// unwrittenAliases solves forward must-written over f's values (a write is
// never killed: which write reached does not matter here) and describes
// each MarkDead whose alias is not written on every path to it.
func unwrittenAliases(f *ir.Func) []string {
	key := func(o ir.Operand) int {
		switch o.Kind {
		case ir.Var:
			return int(o.ID)
		case ir.Temp:
			return len(f.Decl.Locals) + int(o.ID)
		}
		return -1
	}
	if f.Entry != f.Blocks[0] {
		return []string{"the entry is not block 0, where the solver seeds a forward problem"}
	}
	bits := len(f.Decl.Locals) + f.NumTemps
	at := map[*ir.Block]int{}
	for i, b := range f.Blocks {
		at[b] = i
	}
	n := len(f.Blocks)
	g := dataflow.Graph{N: n, Succs: make([][]int, n), Preds: make([][]int, n)}
	gen := make([]*dataflow.BitSet, n)
	kill := make([]*dataflow.BitSet, n)
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			g.Succs[i] = append(g.Succs[i], at[s])
		}
		for _, p := range b.Preds {
			g.Preds[i] = append(g.Preds[i], at[p])
		}
		gen[i], kill[i] = dataflow.NewBitSet(bits), dataflow.NewBitSet(bits)
		for _, in := range b.Instrs {
			if k := key(in.Dst); k >= 0 {
				gen[i].Set(k)
			}
		}
	}
	res := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: bits, Gen: gen, Kill: kill}).Solve()
	var bad []string
	for i, b := range f.Blocks {
		written := res.In[i].Copy()
		for _, in := range b.Instrs {
			if k := key(in.A); in.Kind == ir.MarkDead && k >= 0 && !written.Has(k) {
				bad = append(bad, fmt.Sprintf("B%d: %s (alias %s) is reached unwritten", b.ID, in, in.A))
			}
			if k := key(in.Dst); k >= 0 {
				written.Set(k)
			}
		}
	}
	return bad
}
