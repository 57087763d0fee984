package minic_test

import (
	"testing"

	"repro/pkg/minic"
)

const twoFuncProg = `
int helper(int x) {
	int y = x * 2;
	return y + 1;
}
int main() {
	int s = helper(20);
	print(s);
	return s;
}
`

// TestRecompileReusesUnchangedFunctions is the public-API incremental
// contract: an edit touching one function recompiles exactly one function.
func TestRecompileReusesUnchangedFunctions(t *testing.T) {
	art, err := minic.Compile("prog.mc", twoFuncProg)
	if err != nil {
		t.Fatal(err)
	}
	st := art.CompileStats()
	if st.Funcs != 2 || st.FuncsCompiled != 2 || st.FuncsReused != 0 {
		t.Fatalf("cold stats = %+v, want 2 compiled", st)
	}

	// Identical source: everything stitched from the per-function cache.
	same, err := art.Recompile(twoFuncProg)
	if err != nil {
		t.Fatal(err)
	}
	if st := same.CompileStats(); st.FuncsReused != 2 || st.FuncsCompiled != 0 {
		t.Fatalf("unchanged-source stats = %+v, want 2 reused", st)
	}

	// Edit only main: helper must be reused.
	edited := `
int helper(int x) {
	int y = x * 2;
	return y + 1;
}
int main() {
	int s = helper(21);
	print(s);
	return s;
}
`
	na, err := art.Recompile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if st := na.CompileStats(); st.FuncsCompiled != 1 || st.FuncsReused != 1 {
		t.Fatalf("one-function edit stats = %+v, want 1 compiled / 1 reused", st)
	}

	// The stitched artifact is fully usable: run it and classify through it.
	m, err := na.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Output(); got != "43" {
		t.Fatalf("edited program printed %q, want %q", got, "43")
	}
	if _, err := na.ClassifyFunc("helper"); err != nil {
		t.Fatal(err)
	}

	// Recompiles chain: editing back reuses the original main from cache.
	back, err := na.Recompile(twoFuncProg)
	if err != nil {
		t.Fatal(err)
	}
	if st := back.CompileStats(); st.FuncsCompiled != 0 || st.FuncsReused != 2 {
		t.Fatalf("revert stats = %+v, want 2 reused", st)
	}
}

// TestResolveConfig checks the harness bridge agrees with the options.
func TestResolveConfig(t *testing.T) {
	cfg := minic.ResolveConfig()
	if !cfg.RegAlloc || !cfg.Sched {
		t.Fatalf("default config = %+v, want full O2", cfg)
	}
	cfg = minic.ResolveConfig(minic.WithRegAlloc(false), minic.WithSched(false), minic.WithMarkers(false))
	if cfg.RegAlloc || cfg.Sched || !cfg.Opt.NoMarkers {
		t.Fatalf("ablation config = %+v", cfg)
	}
	cfg = minic.ResolveConfig(minic.WithOptLevel(0))
	if cfg.Opt.PRE || cfg.RegAlloc {
		t.Fatalf("O0 config = %+v", cfg)
	}
}
