package minic_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compile"
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
	// A level alone is that level's Config; a later level sets the passes
	// but cannot turn allocation or scheduling back on.
	for n, want := range []compile.Config{compile.O0(), compile.O1(), compile.O2()} {
		if cfg := minic.ResolveConfig(minic.WithOptLevel(n)); cfg != want {
			t.Errorf("WithOptLevel(%d) = %+v, want %+v", n, cfg, want)
		}
	}
	cfg = minic.ResolveConfig(minic.WithRegAlloc(false), minic.WithOptLevel(1))
	if want := (compile.Config{Opt: compile.O1().Opt, Sched: true}); cfg != want {
		t.Errorf("WithRegAlloc(false), WithOptLevel(1) = %+v, want %+v", cfg, want)
	}
	cfg = minic.ResolveConfig(minic.WithOptLevel(0), minic.WithOptLevel(2))
	if want := compile.O2NoRegAlloc(); cfg != want {
		t.Errorf("WithOptLevel(0), WithOptLevel(2) = %+v, want %+v", cfg, want)
	}
}

const sharedProg = `
int sq(int x) {
	int y = x * x;
	return y + 1;
}
int tri(int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) {
		s = s + sq(i);
	}
	return s;
}
float half(int a, int b) {
	float t = a + b;
	return t / 2.0;
}
int main() {
	int k = tri(4);
	float m = half(k, 3);
	print(k, " ", m, "\n");
	return k;
}
`

// transcript steps a fresh session on a through the whole program and
// renders every stop with the variables in scope, then the output.
func transcript(a *minic.Artifact) (string, error) {
	s, err := minic.NewSession(a)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for n := 0; n < 500 && !s.Halted(); n++ {
		bp, err := s.Step()
		if err != nil {
			return "", err
		}
		if bp == nil {
			break
		}
		fmt.Fprintf(&sb, "%s s%d l%d\n", bp.Fn.Name, bp.Stmt, bp.Line)
		vars, err := s.Info()
		if err != nil {
			return "", err
		}
		for _, v := range vars {
			fmt.Fprintf(&sb, "  %s\n", v.Display())
		}
	}
	if !s.Halted() {
		return "", fmt.Errorf("still running after 500 steps")
	}
	return sb.String() + "output: " + s.Output(), nil
}

// TestRecompileSharesBodiesAcrossSessions: a one-function edit's unchanged
// functions are the cached bodies of the first compile, not copies, and
// sessions on both programs at once neither see nor leave a trace of the
// other. Run under -race, the sessions' reads of the shared bodies are
// checked too.
func TestRecompileSharesBodiesAcrossSessions(t *testing.T) {
	edited := strings.Replace(sharedProg, "return y + 1;", "return y + 2;", 1)
	a, err := minic.Compile("shared.mc", sharedProg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Recompile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if st := b.CompileStats(); st.FuncsCompiled != 1 || st.FuncsReused != 3 {
		t.Fatalf("edit stats = %+v, want 1 compiled / 3 reused", st)
	}
	for _, fa := range a.Funcs() {
		fb := b.Func(fa.Name)
		shared := fa.Blocks[0] == fb.Blocks[0]
		if shared != (fa.Name != "sq") {
			t.Errorf("%s: blocks shared = %v", fa.Name, shared)
		}
		if fa == fb || fa.Decl == fb.Decl {
			t.Errorf("%s: the two programs share a header or a declaration", fa.Name)
		}
	}

	arts := []*minic.Artifact{a, b, a, b}
	got := make([]string, len(arts))
	errs := make([]error, len(arts))
	var wg sync.WaitGroup
	for i, art := range arts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = transcript(art)
		}()
	}
	wg.Wait()

	for i, src := range []string{sharedProg, edited} {
		res, err := compile.Compile("shared.mc", src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		if s := arts[i].Result().Mach.String(); s != res.Mach.String() {
			t.Errorf("program %d after the sessions differs from a fresh single-worker compile:\n%s\nwant:\n%s", i, s, res.Mach)
		}
		fresh, err := minic.Compile("shared.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := transcript(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(arts); j += 2 {
			if errs[j] != nil {
				t.Fatalf("session %d: %v", j, errs[j])
			}
			if got[j] != want {
				t.Errorf("session %d on program %d:\n%s\nwant (fresh compile):\n%s", j, i, got[j], want)
			}
		}
	}
	if got[0] == got[1] {
		t.Error("the edit did not change the transcript; the test cannot tell the programs apart")
	}
}

// TestRecompileSharesAnalyses: a one-function edit analyses only the
// function it compiled. Sessions on both programs run at once with no
// analysis built beforehand, so the first analyses of the shared bodies
// race across the two artifacts (run under -race); afterwards every
// unchanged function's facts (its Table) are the same for both programs,
// each program's analyses answer for its own Funcs, and every transcript
// equals a fresh compile's.
func TestRecompileSharesAnalyses(t *testing.T) {
	edited := strings.Replace(sharedProg, "return y + 1;", "return y + 2;", 1)
	a, err := minic.Compile("shared.mc", sharedProg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Recompile(edited)
	if err != nil {
		t.Fatal(err)
	}
	arts := []*minic.Artifact{a, b, a, b}
	got := make([]string, len(arts))
	errs := make([]error, len(arts))
	var wg sync.WaitGroup
	for i, art := range arts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = transcript(art)
		}()
	}
	wg.Wait()
	for i, src := range []string{sharedProg, edited} {
		fresh, err := minic.Compile("shared.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := transcript(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(arts); j += 2 {
			if errs[j] != nil || got[j] != want {
				t.Fatalf("session %d on program %d (%v):\n%s\nwant (fresh compile):\n%s", j, i, errs[j], got[j], want)
			}
		}
	}
	for _, fa := range a.Funcs() {
		fb := b.Func(fa.Name)
		xa, xb := a.Analysis(fa), b.Analysis(fb)
		if xa.Fn != fa || xb.Fn != fb {
			t.Fatalf("%s: an analysis answers for another program's Func", fa.Name)
		}
		if shared := xa.Table == xb.Table; shared != (fa.Name != "sq") {
			t.Errorf("%s: facts shared = %v", fa.Name, shared)
		}
	}
}
