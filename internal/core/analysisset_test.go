package core

import (
	"sync"
	"testing"

	"repro/internal/compile"
)

const setProg = `
int f(int a) { int x = a + 1; return x * 2; }
int g(int a) { int y = a * 3; return y - 1; }
int main() { return f(2) + g(3); }
`

func TestAnalysisSetSharesBuilds(t *testing.T) {
	res, err := compile.Compile("t.mc", setProg, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisSet()
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range res.Mach.Funcs {
				a := s.Of(f)
				if a == nil || a.Fn != f {
					t.Errorf("bad analysis for %s", f.Name)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.Built(), int64(len(res.Mach.Funcs)); got != want {
		t.Fatalf("built %d analyses for %d functions across %d goroutines", got, want, goroutines)
	}
	// Every caller must observe the same immutable Analysis.
	f := res.Mach.Funcs[0]
	if s.Of(f) != s.Of(f) {
		t.Fatal("Of returned distinct analyses for one function")
	}
}

func TestAnalysisSetPrecompute(t *testing.T) {
	res, err := compile.Compile("t.mc", setProg, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisSet()
	s.Precompute(res.Mach, 2)
	if got, want := s.Built(), int64(len(res.Mach.Funcs)); got != want {
		t.Fatalf("precompute built %d, want %d", got, want)
	}
	// Precompute again and lazy Of afterwards must not rebuild.
	s.Precompute(res.Mach, 0)
	for _, f := range res.Mach.Funcs {
		s.Of(f)
	}
	if got, want := s.Built(), int64(len(res.Mach.Funcs)); got != want {
		t.Fatalf("rebuilt analyses: built %d, want %d", got, want)
	}
}

// TestAnalysisSetPrecomputeInline covers the one-worker path, which builds
// on the caller's goroutine: every function is built once, and the set
// answers with those analyses afterwards.
func TestAnalysisSetPrecomputeInline(t *testing.T) {
	res, err := compile.Compile("t.mc", setProg, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisSet()
	s.Precompute(res.Mach, 1)
	if got, want := s.Built(), int64(len(res.Mach.Funcs)); got != want {
		t.Fatalf("inline precompute built %d, want %d", got, want)
	}
	before := make([]*Analysis, len(res.Mach.Funcs))
	for i, f := range res.Mach.Funcs {
		before[i] = s.Of(f)
	}
	s.Precompute(res.Mach, 1)
	for i, f := range res.Mach.Funcs {
		if s.Of(f) != before[i] {
			t.Fatalf("%s: rebuilt by a second inline precompute", f.Name)
		}
	}
}
