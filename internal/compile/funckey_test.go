package compile_test

import (
	"crypto/sha256"
	"encoding/hex"
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
	goldenGlobalsSig = "b04c886ac0a1c4edfab8a36da30e3eef95a8e899a2be2eb0467366e0a705209a"
	goldenFuncKeys   = "4d7c3d722800c1143f9f68d6724587582653acd059b8e2844638609a19c22d9f"
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
