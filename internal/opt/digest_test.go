package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
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

// optimizeCorpus optimizes each golden program under each variant, in a
// fixed order, and calls fn with every optimized function (or with the
// front end's error and a nil function). It returns the number of
// program-configurations.
func optimizeCorpus(fn func(name string, variant int, f *ir.Func, err error)) int {
	n := 0
	emit := func(name, src string) {
		for v, o := range optVariants() {
			n++
			sp, err := sem.CheckSource(name, src)
			if err != nil {
				fn(name, v, nil, err)
				continue
			}
			prog := ir.Build(sp)
			for _, f := range prog.Funcs {
				opt.RunFunc(f, o)
				fn(name, v, f, nil)
			}
		}
	}
	for _, name := range bench.Names {
		emit(name+".mc", bench.MustSource(name))
	}
	for seed := int64(1); seed <= 200; seed++ {
		emit(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed))
	}
	return n
}

// optIRDigest hashes every field of the optimized IR of each golden
// program under each variant (or the front end's error).
func optIRDigest() (string, int) {
	h := sha256.New()
	n := optimizeCorpus(func(_ string, _ int, f *ir.Func, err error) {
		if err != nil {
			io.WriteString(h, "err "+err.Error()+"\n")
			return
		}
		hashFunc(h, f)
	})
	return hex.EncodeToString(h.Sum(nil)), n
}

// hashFunc writes f field by field. Instr.String omits some annotations
// (InsertedBy, OrigIdx, a MarkDead's alias operand, the annotations of
// non-assignment kinds), so every field is written explicitly.
func hashFunc(h hash.Hash, f *ir.Func) {
	fmt.Fprintf(h, "func %s temps=%d locals=%d frame=[", f.Name, f.NumTemps, len(f.Decl.Locals))
	for _, o := range f.FrameObjects {
		fmt.Fprintf(h, "%s ", objText(o))
	}
	fmt.Fprintf(h, "] entry=%d\n", f.Entry.ID)
	for _, b := range f.Blocks {
		fmt.Fprintf(h, "B%d succs=%v preds=%v\n", b.ID, b.Succs, b.Preds)
		for _, in := range b.Instrs {
			fmt.Fprintf(h, "  k=%d op=%d dst=%s a=%s b=%s off=%d addr=%s callee=%q args=[",
				in.Kind, in.Op, opdText(in.Dst), opdText(in.A), opdText(in.B), in.Off,
				objText(in.AddrObj), in.Callee)
			for _, a := range in.Args {
				fmt.Fprintf(h, "%s ", opdText(a))
			}
			io.WriteString(h, "] print=[")
			for _, a := range in.PrintFmt {
				fmt.Fprintf(h, "%t:%q:%s ", a.IsStr, a.Str, opdText(a.Val))
			}
			fmt.Fprintf(h, "] param=%d mark=%s stmt=%d orig=%d hoisted=%t sunk=%t by=%q replaced=%s",
				in.ParamIdx, objText(in.MarkObj), in.Stmt, in.OrigIdx,
				in.Ann.Hoisted, in.Ann.Sunk, in.Ann.InsertedBy, objText(in.Ann.ReplacedVar))
			if r := in.Ann.Recover; r != nil {
				fmt.Fprintf(h, " recover=%s,%d,%d", objText(r.Var), r.A, r.B)
			}
			io.WriteString(h, "\n")
		}
	}
}

func objText(o *ast.Object) string {
	if o == nil {
		return "-"
	}
	return fmt.Sprintf("%s#%d", o.Name, o.ID)
}

func opdText(o ir.Operand) string {
	return fmt.Sprintf("%d/%d/%d/%s/%d/%x", o.Kind, o.Ty, o.TID, objText(o.Obj), o.Int, math.Float64bits(o.Fl))
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
			return o.Obj.ID
		case ir.Temp:
			return len(f.Decl.Locals) + o.TID
		}
		return -1
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
		Bits: bits, Gen: gen, Kill: kill, Entries: []int{at[f.Entry]}}).Solve()
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
