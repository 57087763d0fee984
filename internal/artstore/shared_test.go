package artstore

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/debuginfo"
	"repro/internal/randprog"
)

// editPair returns a random program and its one-function edit: the same
// source with one function appended, the edit the mcperf compile
// workload makes.
func editPair(seed int64) (name, base, edit string) {
	base = randprog.Gen(seed)
	return fmt.Sprintf("edit%d.mc", seed), base, base + "\nint edit1(int x) { return x + 1; }\n"
}

// getEdit compiles base and then its edit through st, and checks that the
// edit compiled only the appended function.
func getEdit(t *testing.T, st *Store, seed int64) (a1, a2 *Artifact, name, base, edit string) {
	t.Helper()
	name, base, edit = editPair(seed)
	a1, _, err := st.Get(name, base, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err = st.Get(name, edit, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if a2.Metrics.FuncsCompiled != 1 || a2.Metrics.FuncsReused != len(a1.Res.Mach.Funcs) {
		t.Fatalf("edit compiled %d and reused %d functions; want 1 and %d",
			a2.Metrics.FuncsCompiled, a2.Metrics.FuncsReused, len(a1.Res.Mach.Funcs))
	}
	return a1, a2, name, base, edit
}

// sweepOf renders every verdict an analysis gives: each in-scope
// variable at each statement's breakpoint and at each of its instances.
func sweepOf(a *core.Analysis) string {
	var b strings.Builder
	locals := a.Fn.Decl.Locals
	for s := 0; s < a.Table.NumStmts; s++ {
		cs, ok := a.ClassifyAllAt(s)
		fmt.Fprintf(&b, "%s s%d %v\n", a.Fn.Name, s, ok)
		for _, c := range cs {
			fmt.Fprintf(&b, "  %s %s %s %q %v %v\n", c.Var.Name, c.State, c.Cause, c.Why, c.SrcStmts, c.Recovered)
		}
		for _, l := range a.Table.InstancesOf(s) {
			for _, id := range a.Table.VarsInScope(s) {
				c := a.ClassifyLoc(l, locals[id])
				fmt.Fprintf(&b, "  @%d:%d %s %s %q\n", l.Block.ID, l.Idx, c.Var.Name, c.State, c.Why)
			}
		}
	}
	return b.String()
}

// checkAgainstReference requires art's analyses, swept and driven through
// a scripted session, to answer exactly as core.Analyze and a session do
// on a store-free compile of the same source.
func checkAgainstReference(t *testing.T, art *Artifact, name, src string) {
	t.Helper()
	ref, err := compile.Compile(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ref.Mach.Funcs {
		if got, want := sweepOf(art.Analyses.Of(art.Res.Mach.LookupFunc(f.Name))), sweepOf(core.Analyze(f)); got != want {
			t.Fatalf("%s: %s classifies unlike core.Analyze:\n%s\nwant:\n%s", art.ID(), f.Name, got, want)
		}
	}
	got, err := transcriptWith(art.Res, art.Analyses)
	if err != nil {
		t.Fatal(err)
	}
	if want := sessionTranscript(t, ref); got != want {
		t.Fatalf("%s: session differs from a store-free compile:\n%s\nwant:\n%s", art.ID(), got, want)
	}
}

// TestEditSharesAnalyses compiles a program and then a one-function edit
// through one store. The edit builds one analysis, for the function it
// compiled; every other function reads the facts the first compile built
// (the same Table), through an analysis of its own over its own Func; and
// both artifacts answer every query as store-free references do.
func TestEditSharesAnalyses(t *testing.T) {
	st := New(Config{})
	a1, a2, name, base, edit := getEdit(t, st, 11)
	a1.Analyses.Precompute(a1.Res.Mach, 1)
	if got, want := st.AnalysesBuilt(), int64(len(a1.Res.Mach.Funcs)); got != want {
		t.Fatalf("first compile built %d analyses for %d functions", got, want)
	}
	a2.Analyses.Precompute(a2.Res.Mach, 1)
	if got := st.AnalysesBuilt() - int64(len(a1.Res.Mach.Funcs)); got != 1 || a2.Analyses.Built() != 1 {
		t.Fatalf("the edit built %d analyses (its set %d), want 1", got, a2.Analyses.Built())
	}
	shared := 0
	for _, f2 := range a2.Res.Mach.Funcs {
		x2 := a2.Analyses.Of(f2)
		if x2.Fn != f2 {
			t.Fatalf("%s: the analysis answers for another Func", f2.Name)
		}
		f1 := a1.Res.Mach.LookupFunc(f2.Name)
		if f1 == nil {
			continue
		}
		x1 := a1.Analyses.Of(f1)
		if f1.Entry != f2.Entry || x1.Table != x2.Table {
			t.Fatalf("%s: unchanged function does not share its body and facts", f2.Name)
		}
		if x1 == x2 || x1.Fn.Decl == x2.Fn.Decl {
			t.Fatalf("%s: the two compiles share a header", f2.Name)
		}
		shared++
	}
	if shared != len(a1.Res.Mach.Funcs) {
		t.Fatalf("%d of %d functions shared", shared, len(a1.Res.Mach.Funcs))
	}
	// Each artifact is charged for every analysis it reaches.
	if a2.Analyses.Bytes() <= a1.Analyses.Bytes() {
		t.Fatalf("the edit is charged %d B, the program %d B", a2.Analyses.Bytes(), a1.Analyses.Bytes())
	}
	checkAgainstReference(t, a1, name, base)
	checkAgainstReference(t, a2, name, edit)
}

// TestSharedAnalysesConcurrentSessions runs four sessions at once, two on
// a program and two on its edit, with no analysis built beforehand, so
// the first builds of the shared bodies race across the two artifacts'
// sets. Run under -race. Every transcript must equal a store-free one,
// and each body is analysed once.
func TestSharedAnalysesConcurrentSessions(t *testing.T) {
	st := New(Config{})
	a1, a2, name, base, edit := getEdit(t, st, 12)
	want := map[*Artifact]string{}
	for art, src := range map[*Artifact]string{a1: base, a2: edit} {
		ref, err := compile.Compile(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		want[art] = sessionTranscript(t, ref)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, art := range []*Artifact{a1, a2, a1, a2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := transcriptWith(art.Res, art.Analyses)
			if err == nil && got != want[art] {
				err = fmt.Errorf("%s: concurrent session differs:\n%s\nwant:\n%s", art.ID(), got, want[art])
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a1.Analyses.Precompute(a1.Res.Mach, 2)
	a2.Analyses.Precompute(a2.Res.Mach, 2)
	if got, want := st.AnalysesBuilt(), int64(len(a2.Res.Mach.Funcs)); got != want {
		t.Fatalf("built %d analyses over %d distinct bodies", got, want)
	}
	for _, f1 := range a1.Res.Mach.Funcs {
		f2 := a2.Res.Mach.LookupFunc(f1.Name)
		if a1.Analyses.Of(f1).Table != a2.Analyses.Of(f2).Table {
			t.Fatalf("%s: facts built twice", f1.Name)
		}
	}
}

// TestSharedAnalysisDoesNotPinItsBuilder builds every analysis through a
// program, shares them with its edit, and then drops the program: its
// checked program and its function headers (each of which reaches the
// function's declaration and locals) must be collected while the edit's
// sessions classify on the facts it built. core's TestFactsHoldNoFrontEnd
// checks that the facts reach no front-end object at all.
func TestSharedAnalysisDoesNotPinItsBuilder(t *testing.T) {
	st := New(Config{MaxArtifacts: 1})
	name, base, edit := editPair(13)
	a1, _, err := st.Get(name, base, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	a1.Analyses.Precompute(a1.Res.Mach, 1)
	var watched, freed atomic.Int64
	watch(a1.Res.Sem, &watched, &freed)
	tables := map[string]*debuginfo.Table{}
	for _, f := range a1.Res.Mach.Funcs {
		watch(f, &watched, &freed)
		tables[f.Name] = a1.Analyses.Of(f).Table
	}

	a2, _, err := st.Get(name, edit, compile.O2()) // evicts a1
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Evictions != 1 {
		t.Fatal("the program was not evicted")
	}
	a2.Analyses.Precompute(a2.Res.Mach, 1)
	for _, f := range a2.Res.Mach.Funcs {
		if tb, ok := tables[f.Name]; ok && a2.Analyses.Of(f).Table != tb {
			t.Fatalf("%s: the edit does not share the program's facts", f.Name)
		}
	}
	a1 = nil

	d, err := debugger.NewShared(a2.Res, a2.Analyses)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range a2.Res.Mach.Funcs {
		for s := 0; s < 3; s++ {
			d.BreakAtStmt(f.Name, s)
		}
	}
	stops := 0
	for i := 0; i < 50 && freed.Load() < watched.Load(); i++ {
		runtime.GC()
		bp, err := d.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if bp == nil {
			break
		}
		if _, err := d.Info(); err != nil {
			t.Fatal(err)
		}
		stops++
	}
	for i := 0; i < 10 && freed.Load() < watched.Load(); i++ {
		runtime.GC()
	}
	if freed.Load() < watched.Load() {
		t.Fatalf("%d of %d headers and checked programs of the dropped program are still reachable", watched.Load()-freed.Load(), watched.Load())
	}
	if stops == 0 {
		t.Fatal("the edit's session never stopped")
	}
	checkAgainstReference(t, a2, name, edit)
}

// watch counts p in watched, and in freed once p is collected. p must be
// in no reference cycle, or its finalizer may never run.
func watch[T any](p *T, watched, freed *atomic.Int64) {
	watched.Add(1)
	runtime.SetFinalizer(p, func(*T) { freed.Add(1) })
}
