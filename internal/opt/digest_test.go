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
const goldenOptIRDigest = "53393254718ea81208dd0ce498aaedc1a76651c56422c7103c5a10b1c089d261"

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

// optIRDigest hashes every field of the optimized IR of each golden
// program under each variant (or the front end's error).
func optIRDigest() (string, int) {
	h := sha256.New()
	n := 0
	emit := func(name, src string) {
		for _, o := range optVariants() {
			n++
			sp, err := sem.CheckSource(name, src)
			if err != nil {
				io.WriteString(h, "err "+err.Error()+"\n")
				continue
			}
			prog := ir.Build(sp)
			for _, f := range prog.Funcs {
				opt.RunFunc(f, o)
				hashFunc(h, f)
			}
		}
	}
	for _, name := range bench.Names {
		emit(name+".mc", bench.MustSource(name))
	}
	for seed := int64(1); seed <= 200; seed++ {
		emit(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed))
	}
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
