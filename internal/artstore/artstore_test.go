package artstore

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/randprog"
)

func srcFor(i int) (string, string) {
	name := fmt.Sprintf("p%d.mc", i)
	src := fmt.Sprintf(`
int main() {
	int s = %d;
	int i;
	for (i = 0; i < %d; i++) { s += i; }
	print(s);
	return s;
}
`, i, 5+i)
	return name, src
}

func TestGetCompilesOnceAndCoalescesAnalyses(t *testing.T) {
	st := New(Config{})
	name, src := srcFor(1)
	a1, hit, err := st.Get(name, src, compile.O2())
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	a2, hit, err := st.Get(name, src, compile.O2())
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if a1 != a2 {
		t.Fatal("hit returned a different artifact")
	}
	if a1.ID() == "" || a1.ID() != compile.KeyOf(name, src, compile.O2()).ID() {
		t.Fatalf("artifact id %q", a1.ID())
	}
	// The identity includes the config: the same source at O0 compiles
	// separately.
	a0, hit, err := st.Get(name, src, compile.O0())
	if err != nil || hit {
		t.Fatalf("O0 get: hit=%v err=%v", hit, err)
	}
	if a0 == a1 || a0.ID() == a1.ID() {
		t.Fatal("O0 and O2 compiles of one source share an artifact")
	}
}

func TestAnalysesChargeTheArtifactBudget(t *testing.T) {
	st := New(Config{MemoryBudget: 1 << 30})
	name, src := srcFor(1)
	a, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats().MemoryBytes
	a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
	after := st.Stats().MemoryBytes
	if after <= before {
		t.Fatalf("analysis build did not charge the store: %d -> %d", before, after)
	}
	if got := a.Analyses.Bytes(); after-before != got {
		t.Fatalf("charged %d, analysis set reports %d", after-before, got)
	}
}

func TestMemoryBudgetEnforcedOverArtifactsAndAnalyses(t *testing.T) {
	// A budget far below the combined cost of the artifacts forces
	// evictions; the accounted bytes must never exceed the budget, even
	// as lazily built analyses add charges after admission.
	const budget = 64 << 10
	st := New(Config{MemoryBudget: budget})
	for i := 0; i < 12; i++ {
		name, src := srcFor(i)
		a, _, err := st.Get(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
		if got := st.Stats().MemoryBytes; got > budget {
			t.Fatalf("accounted bytes %d exceed budget %d", got, budget)
		}
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("no evictions under budget pressure")
	}
}

func TestSpillReloadIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st := New(Config{SpillDir: dir})
	name, src := srcFor(3)
	orig, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	want := orig.Res.Mach.String()
	st.Flush()

	restarted := New(Config{SpillDir: dir})
	got, hit, err := restarted.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("restart did not keep the warm set")
	}
	if s := restarted.Stats(); s.SpillHits != 1 {
		t.Fatalf("stats after restart = %+v", s)
	}
	if got.Res.Mach.String() != want {
		t.Fatal("rehydrated machine code differs from original")
	}
	// Rehydrated analyses rebuild and charge the restarted store.
	got.Analyses.Of(got.Res.Mach.LookupFunc("main"))
	if restarted.Stats().MemoryBytes <= got.Res.SizeBytes() {
		t.Fatal("rebuilt analyses not charged after rehydration")
	}
}

func TestLookupFindsSpilledArtifacts(t *testing.T) {
	dir := t.TempDir()
	st := New(Config{SpillDir: dir})
	name, src := srcFor(4)
	a, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	id := a.ID()
	if got, ok := st.Lookup(id); !ok || got != a {
		t.Fatal("memory Lookup failed")
	}
	st.Flush()

	restarted := New(Config{SpillDir: dir})
	got, ok := restarted.Lookup(id)
	if !ok {
		t.Fatal("disk Lookup failed after restart")
	}
	if got.Res.Mach.String() != a.Res.Mach.String() {
		t.Fatal("disk Lookup returned different machine code")
	}
	if _, ok := restarted.Lookup("ffffffffffff"); ok {
		t.Fatal("Lookup of unknown handle succeeded")
	}
}

func TestEvictedArtifactAnalysisChargeIsDropped(t *testing.T) {
	st := New(Config{MaxArtifacts: 1})
	nameA, srcA := srcFor(1)
	a, _, err := st.Get(nameA, srcA, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	nameB, srcB := srcFor(2)
	b, _, err := st.Get(nameB, srcB, compile.O2()) // evicts a
	if err != nil {
		t.Fatal(err)
	}
	accounted := st.Stats().MemoryBytes
	// Building the evicted artifact's analyses must not charge the store:
	// its memory left the accounted set with the eviction. The artifact
	// itself keeps working (sessions holding it are unaffected).
	an := a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
	if an == nil {
		t.Fatal("evicted artifact's analysis unusable")
	}
	if got := st.Stats().MemoryBytes; got != accounted {
		t.Fatalf("orphan analysis charged the store: %d -> %d", accounted, got)
	}
	// The resident artifact still charges normally.
	b.Analyses.Of(b.Res.Mach.LookupFunc("main"))
	if got := st.Stats().MemoryBytes; got <= accounted {
		t.Fatal("resident artifact's analysis not charged")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	st := New(Config{})
	for i := 0; i < 2; i++ {
		_, _, err := st.Get("bad.mc", "int main() { return undeclared; }", compile.O2())
		if err == nil {
			t.Fatal("want compile error")
		}
	}
	s := st.Stats()
	if s.Misses != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFuncCacheBoundedWithoutMemoryBudget: a store with no memory budget
// (the daemon's default) still bounds its per-function tier, so compiling
// a stream of fresh programs does not grow it without limit, and a
// one-function edit still recompiles only the edited function.
func TestFuncCacheBoundedWithoutMemoryBudget(t *testing.T) {
	st := New(Config{Shards: 8})
	for seed := int64(1); seed <= 600; seed++ {
		if _, _, err := st.Get(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), compile.O2()); err != nil {
			t.Fatal(err)
		}
	}
	fs, ok := st.FuncCacheStats()
	if !ok {
		t.Fatal("incremental reuse disabled")
	}
	if fs.MemoryBudget != DefaultFuncCacheBudget {
		t.Errorf("function cache budget %d, want %d", fs.MemoryBudget, DefaultFuncCacheBudget)
	}
	if fs.MemoryBytes > DefaultFuncCacheBudget {
		t.Errorf("function cache holds %d accounted bytes after 600 fresh programs, over its %d budget",
			fs.MemoryBytes, DefaultFuncCacheBudget)
	}
	if fs.Evictions == 0 {
		t.Error("600 fresh programs never reached the bound; the test no longer exercises it")
	}

	src := bench.MustSource("li")
	if _, _, err := st.Get("li.mc", src, compile.O2()); err != nil {
		t.Fatal(err)
	}
	edited := src + "\nint probe(int x) { return x * 3 + 1; }\n"
	a, _, err := st.Get("li.mc", edited, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.FuncsCompiled != 1 {
		t.Errorf("one-function edit compiled %d funcs, want 1 (reused %d of %d)",
			a.Metrics.FuncsCompiled, a.Metrics.FuncsReused, a.Metrics.Funcs)
	}
}
