package artstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
)

// stressSource returns distinct MiniC sources whose combined artifact +
// analysis cost far exceeds the stress test's budget. Each differs in
// constants and loop bounds, so artifacts and classifications all differ.
func stressSource(i int) (string, string) {
	return fmt.Sprintf("stress%d.mc", i), fmt.Sprintf(`
int g(int c, int a, int b) {
	int x = a * b + %d;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() {
	int s = 0;
	int i;
	for (i = 0; i < %d; i++) { s += g(i, i + 1, %d); }
	print(s);
	return s;
}
`, i, 4+i%5, 2+i)
}

// classifyFunc flattens a whole-function classification sweep of fn —
// every in-scope variable at every breakpoint — to one comparable string.
func classifyFunc(res *compile.Result, set *core.AnalysisSet, fn string) string {
	f := res.Mach.LookupFunc(fn)
	an := set.Of(f)
	var b strings.Builder
	for s := 0; s < f.Decl.NumStmts; s++ {
		cs, _ := an.ClassifyAllAt(s)
		for _, c := range cs {
			fmt.Fprintf(&b, "%d %s %s %s %s\n", s, c.Var.Name, c.State, c.Cause, c.Why)
		}
	}
	return b.String()
}

// TestStoreEvictionStress: compilers request a source set through a
// store whose budget holds only a fraction of it (so eviction and spill
// churn throughout), while classifiers sweep whole functions on the
// artifacts as they come out. Run under -race. Every machine code and
// every classification must equal a single-threaded reference compiled
// outside any store — no sweep may observe a partially evicted artifact —
// and artifacts read back from the disk tier must answer the same.
func TestStoreEvictionStress(t *testing.T) {
	const (
		numSources   = 24
		compilers    = 4
		classifiers  = 4
		roundsPerSrc = 3
	)
	wantMach := make([]string, numSources)
	wantClasses := make([]string, numSources)
	for i := range numSources {
		name, src := stressSource(i)
		res, err := compile.Compile(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		wantMach[i] = res.Mach.String()
		wantClasses[i] = classifyFunc(res, core.NewAnalysisSet(), "g")
	}

	// Each artifact plus its analyses runs tens of KB, so 256 KiB holds
	// only a few of the 24.
	st := New(Config{Shards: 8, MemoryBudget: 256 << 10, SpillDir: t.TempDir()})
	defer st.Close()
	get := func(idx int) (*Artifact, error) {
		name, src := stressSource(idx)
		a, _, err := st.Get(name, src, compile.O2())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if a.Res.Mach.String() != wantMach[idx] {
			return nil, fmt.Errorf("%s: machine code differs from reference", name)
		}
		return a, nil
	}

	arts := make(chan int, compilers*numSources*roundsPerSrc)
	var compiling, classifying sync.WaitGroup
	for c := range compilers {
		compiling.Add(1)
		go func() {
			defer compiling.Done()
			for range roundsPerSrc {
				for i := range numSources {
					idx := (i + c*7) % numSources
					if _, err := get(idx); err != nil {
						t.Errorf("compiler %d: %v", c, err)
						return
					}
					arts <- idx
				}
			}
		}()
	}
	for cl := range classifiers {
		classifying.Add(1)
		go func() {
			defer classifying.Done()
			for idx := range arts {
				a, err := get(idx)
				if err != nil {
					t.Errorf("classifier %d: %v", cl, err)
					return
				}
				if got := classifyFunc(a.Res, a.Analyses, "g"); got != wantClasses[idx] {
					t.Errorf("classifier %d: source %d: classifications differ from reference:\ngot:\n%s\nwant:\n%s",
						cl, idx, got, wantClasses[idx])
					return
				}
			}
		}()
	}
	compiling.Wait()
	close(arts)
	classifying.Wait()
	if t.Failed() {
		return
	}

	stats := st.Stats()
	if stats.Evictions == 0 || stats.SpillWrites == 0 {
		t.Fatalf("stress did not churn the store: %+v", stats)
	}
	if stats.MemoryBytes > stats.MemoryBudget {
		t.Fatalf("accounted bytes %d exceed budget %d", stats.MemoryBytes, stats.MemoryBudget)
	}

	// Drain: request everything once more; most now come from disk.
	for i := range numSources {
		a, err := get(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := classifyFunc(a.Res, a.Analyses, "g"); got != wantClasses[i] {
			t.Fatalf("source %d: read-back classifications differ from reference", i)
		}
	}
	if st.Stats().SpillHits == 0 {
		t.Fatalf("drain never hit the disk tier: %+v", st.Stats())
	}
}
