package compile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/debugger"
	"repro/internal/ir"
	"repro/internal/sem"
)

// structSrc builds a workload whose struct layout can be permuted without
// changing anything else: reordering the fields of S changes member offsets
// (and the SROA decomposition) but leaves every token of the function
// bodies identical.
func structSrc(fields string) string {
	return `
struct S { ` + fields + ` };
int untouched(int x) { int y; y = x * 7 + 2; return y; }
int use() {
  struct S s;
  s.a = 3;
  s.b = 5;
  return s.a * 10 + s.b;
}
int main() {
  int r;
  r = use() + untouched(4);
  print(r);
  return r;
}
`
}

// TestFuncKeyStructLayout asserts the per-function cache contract for
// aggregates: a struct field reorder changes the layout every struct-using
// function compiles against, so those functions must MISS the FuncCache,
// while functions that never touch the struct still hit.
func TestFuncKeyStructLayout(t *testing.T) {
	for cfgName, cfg := range testConfigs() {
		pipe := compile.NewPipeline(compile.PipelineConfig{
			Workers: 8,
			Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 4}),
		})
		a := structSrc("int a; int b;")
		b := structSrc("int b; int a;")

		if _, m, err := pipe.Compile("p", a, cfg); err != nil {
			t.Fatalf("%s: cold: %v", cfgName, err)
		} else if m.FuncsReused != 0 {
			t.Fatalf("%s: cold compile reused %d funcs", cfgName, m.FuncsReused)
		}

		// Same source again: everything must be stitched from the cache.
		if _, m, err := pipe.Compile("p", a, cfg); err != nil {
			t.Fatalf("%s: warm: %v", cfgName, err)
		} else if m.FuncsReused != m.Funcs {
			t.Errorf("%s: warm compile reused %d of %d funcs", cfgName, m.FuncsReused, m.Funcs)
		}

		// Field reorder: use() and main() see a different layout and must
		// recompile; untouched() has no struct in its environment and hits.
		res, m, err := pipe.Compile("p", b, cfg)
		if err != nil {
			t.Fatalf("%s: reordered: %v", cfgName, err)
		}
		if m.FuncsCompiled < 1 {
			t.Errorf("%s: struct field reorder reused every func (%d of %d); layout is not in the key",
				cfgName, m.FuncsReused, m.Funcs)
		}
		if m.FuncsReused < 1 {
			t.Errorf("%s: reorder recompiled all %d funcs; untouched() should still hit", cfgName, m.Funcs)
		}

		// And the stitched result must match the pass-major reference
		// compile of the reordered source.
		want := passMajor(t, "p", b, cfg)
		if machDigest(t, res) != machDigest(t, want) {
			t.Errorf("%s: stitched reordered program differs from reference compile", cfgName)
		}

		// Beyond the machine code, the debug-info story must be identical:
		// classify every variable (including the per-field sub-reports of
		// the SROA'd struct) at a stop inside use() on both results.
		if got, want := classifyAll(t, res), classifyAll(t, want); !slicesEqual(got, want) {
			t.Errorf("%s: parallel-8 classification differs from reference:\n got: %q\nwant: %q",
				cfgName, got, want)
		}
	}
}

// classifyAll stops at use()'s return and renders every in-scope report,
// fields included.
func classifyAll(t *testing.T, res *compile.Result) []string {
	t.Helper()
	d, err := debugger.New(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BreakAtLine(8); err != nil {
		t.Fatal(err)
	}
	if bp, err := d.Continue(); err != nil || bp == nil {
		t.Fatalf("continue: %v %v", bp, err)
	}
	rs, err := d.Info()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range rs {
		out = append(out, r.Display())
		for _, fr := range r.Fields {
			out = append(out, fr.Display())
		}
	}
	return out
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// goldenGlobalsSig is GlobalsSigOf(li at O2) and goldenFuncKeys hashes
// FuncKeyOf of every corpus function at O2, in bench.Names and function
// order. They pin the bytes the function-cache keys hash: a change to how
// keys are written must keep them, or bump funcKeyVersion and re-pin.
const (
	goldenGlobalsSig = "bbce67def5b649d3c64044470308699a2e1ccc295a0ccdddff463998f9c12f66"
	goldenFuncKeys   = "c98bcaa67982238d1fad7c3a139ace8b78726c23fdffd75bcca2d1f40fd5c52c"
)

func TestFuncKeyBytesPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range bench.Names {
		sp, err := sem.CheckSource(name+".mc", bench.MustSource(name))
		if err != nil {
			t.Fatal(err)
		}
		prog := ir.Build(sp)
		sig := compile.GlobalsSigOf(prog, compile.O2())
		if name == "li" {
			if got := hex.EncodeToString(sig[:]); got != goldenGlobalsSig {
				t.Errorf("GlobalsSigOf(li, O2) = %s, want %s", got, goldenGlobalsSig)
			}
		}
		for _, f := range prog.Funcs {
			k := compile.FuncKeyOf(f, sig)
			h.Write(k[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFuncKeys {
		t.Errorf("corpus FuncKeyOf digest = %s, want %s", got, goldenFuncKeys)
	}
}

// keySite is one instruction of the corpus's freshly built IR, with its
// function's globals signature.
type keySite struct {
	f   *ir.Func
	b   *ir.Block
	i   int
	sig compile.GlobalsSig
}

// keyOf returns the function's key with in standing at the site.
func (s keySite) keyOf(in *ir.Instr) compile.FuncKey {
	orig := s.b.Instrs[s.i]
	s.b.Instrs[s.i] = in
	defer func() { s.b.Instrs[s.i] = orig }()
	return compile.FuncKeyOf(s.f, s.sig)
}

// findSite returns the first corpus instruction ok accepts.
func findSite(t *testing.T, ok func(*ir.Instr) bool) keySite {
	t.Helper()
	for _, name := range bench.Names {
		sp, err := sem.CheckSource(name+".mc", bench.MustSource(name))
		if err != nil {
			t.Fatal(err)
		}
		prog := ir.Build(sp)
		sig := compile.GlobalsSigOf(prog, compile.O2())
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for i, in := range b.Instrs {
					if ok(in) {
						return keySite{f, b, i, sig}
					}
				}
			}
		}
	}
	t.Fatal("no corpus instruction fits")
	return keySite{}
}

// TestFuncKeySeesEveryField changes one field at a time in a corpus
// function's IR and requires the function's key to change: a field the
// key writer dropped would let two different functions share a cached
// back end. Operand slots take every value of a set that differs in one
// field at a time, and all of their keys must differ.
func TestFuncKeySeesEveryField(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	opds := []struct {
		name string
		o    ir.Operand
	}{
		{"absent", ir.Operand{}},
		{"CI(0)", ir.CI(0)},
		{"temp 0", ir.TempOf(0, ir.I)},
		{"float temp 0", ir.TempOf(0, ir.F)},
		{"temp 1", ir.TempOf(1, ir.I)},
		{"temp 0 with Int 1", ir.Operand{Kind: ir.Temp, Ty: ir.I, Int: 1}},
		{"var 0", ir.Operand{Kind: ir.Var, Ty: ir.I, ID: 0}},
		{"var 1", ir.Operand{Kind: ir.Var, Ty: ir.I, ID: 1}},
		{"float var 1", ir.Operand{Kind: ir.Var, Ty: ir.F, ID: 1}},
		{"CI(1)", ir.CI(1)},
		{"CI(-1)", ir.CI(-1)},
		{"CI(1) with ID 1", ir.Operand{Kind: ir.ConstI, Ty: ir.I, ID: 1, Int: 1}},
		{"CI(1) typed float", ir.Operand{Kind: ir.ConstI, Ty: ir.F, Int: 1}},
		{"CF(+0)", ir.CF(0)},
		{"CF(-0)", ir.CF(math.Copysign(0, -1))},
		{"CF(1)", ir.CF(1)},
		{"CF(NaN payload 1)", ir.CF(nan1)},
		{"CF(NaN payload 2)", ir.CF(nan2)},
	}
	// slot checks that every operand value gives the instruction a
	// different key when set.
	slot := func(name string, s keySite, set func(in *ir.Instr, o ir.Operand)) {
		t.Helper()
		seen := map[compile.FuncKey]string{}
		for _, v := range opds {
			in := s.b.Instrs[s.i].Clone()
			set(in, v.o)
			k := s.keyOf(in)
			if prev, dup := seen[k]; dup {
				t.Errorf("%s: %s and %s give one key", name, prev, v.name)
			}
			seen[k] = v.name
		}
	}

	bin := findSite(t, func(in *ir.Instr) bool { return in.Kind == ir.BinOp })
	slot("Dst", bin, func(in *ir.Instr, o ir.Operand) { in.Dst = o })
	slot("A", bin, func(in *ir.Instr, o ir.Operand) { in.A = o })
	slot("B", bin, func(in *ir.Instr, o ir.Operand) { in.B = o })

	call := findSite(t, func(in *ir.Instr) bool { return in.Kind == ir.Call && len(in.Args) >= 2 })
	for j := range call.b.Instrs[call.i].Args {
		slot(fmt.Sprintf("Args[%d]", j), call, func(in *ir.Instr, o ir.Operand) { in.Args[j] = o })
	}
	prn := findSite(t, func(in *ir.Instr) bool {
		vals := 0
		for _, a := range in.PrintFmt {
			if !a.IsStr {
				vals++
			}
		}
		return in.Kind == ir.Print && vals >= 1 && len(in.PrintFmt) >= 2
	})
	for j := range prn.b.Instrs[prn.i].PrintFmt {
		slot(fmt.Sprintf("PrintFmt[%d].Val", j), prn, func(in *ir.Instr, o ir.Operand) { in.PrintFmt[j].Val = o })
	}

	obj := bin.f.Decl.Locals[0]
	other := bin.f.Decl.Locals[len(bin.f.Decl.Locals)-1]
	if obj == other {
		t.Fatalf("%s has one local; pick a function with two", bin.f.Name)
	}
	type change struct {
		name string
		site keySite
		set  func(in *ir.Instr)
	}
	fields := []change{
		{"Kind", bin, func(in *ir.Instr) { in.Kind = ir.UnOp }},
		{"Op", bin, func(in *ir.Instr) { in.Op++ }},
		{"Off", bin, func(in *ir.Instr) { in.Off += 4 }},
		{"AddrObj", bin, func(in *ir.Instr) { in.AddrObj = obj }},
		{"Callee", bin, func(in *ir.Instr) { in.Callee = "f" }},
		{"Args added", bin, func(in *ir.Instr) { in.Args = []ir.Operand{{}} }},
		{"PrintFmt added", bin, func(in *ir.Instr) { in.PrintFmt = []ir.PrintArg{{}} }},
		{"ParamIdx", bin, func(in *ir.Instr) { in.ParamIdx++ }},
		{"MarkObj", bin, func(in *ir.Instr) { in.MarkObj = obj }},
		{"Stmt", bin, func(in *ir.Instr) { in.Stmt++ }},
		{"OrigIdx", bin, func(in *ir.Instr) { in.OrigIdx++ }},
		{"Ann.Hoisted", bin, func(in *ir.Instr) { in.Ann.Hoisted = !in.Ann.Hoisted }},
		{"Ann.Sunk", bin, func(in *ir.Instr) { in.Ann.Sunk = !in.Ann.Sunk }},
		{"Ann.InsertedBy", bin, func(in *ir.Instr) { in.Ann.InsertedBy += "pre" }},
		{"Ann.ReplacedVar", bin, func(in *ir.Instr) { in.Ann.ReplacedVar = obj }},
		{"Ann.Recover", bin, func(in *ir.Instr) { in.Ann.Recover = &ir.LinRecovery{} }},
		{"Callee of a call", call, func(in *ir.Instr) { in.Callee += "x" }},
		{"Args dropped", call, func(in *ir.Instr) { in.Args = in.Args[:len(in.Args)-1] }},
	}
	for j := range prn.b.Instrs[prn.i].PrintFmt {
		fields = append(fields,
			change{fmt.Sprintf("PrintFmt[%d].IsStr", j), prn, func(in *ir.Instr) { in.PrintFmt[j].IsStr = !in.PrintFmt[j].IsStr }},
			change{fmt.Sprintf("PrintFmt[%d].Str", j), prn, func(in *ir.Instr) { in.PrintFmt[j].Str += "!" }})
	}
	for _, c := range fields {
		base := c.site.keyOf(c.site.b.Instrs[c.site.i])
		in := c.site.b.Instrs[c.site.i].Clone()
		c.set(in)
		if c.site.keyOf(in) == base {
			t.Errorf("changing %s leaves the key unchanged", c.name)
		}
	}

	// Recover's fields, each against a recovery that differs in it alone.
	rec := func(r ir.LinRecovery) compile.FuncKey {
		in := bin.b.Instrs[bin.i].Clone()
		in.Ann.Recover = &r
		return bin.keyOf(in)
	}
	base := ir.LinRecovery{Var: obj, A: 2, B: 3}
	for name, r := range map[string]ir.LinRecovery{
		"Recover.Var": {Var: other, A: 2, B: 3},
		"Recover.A":   {Var: obj, A: -2, B: 3},
		"Recover.B":   {Var: obj, A: 2, B: 4},
	} {
		if rec(r) == rec(base) {
			t.Errorf("changing %s leaves the key unchanged", name)
		}
	}
}
