package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/randprog"
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

// TestSharedFactsFollowTheirHolders: two sets over Funcs that share one
// body share its facts, and only the set that built them counts the
// build. Once neither set is reachable, the registry lets the facts go
// and forgets the body, so a later set builds them again.
func TestSharedFactsFollowTheirHolders(t *testing.T) {
	res, err := compile.Compile("t.mc", setProg, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Mach.Funcs[0]
	g := *f // a second header over f's body, as the function cache makes
	s1, s2 := NewAnalysisSet(), NewAnalysisSet()
	a1, a2 := s1.Of(f), s2.Of(&g)
	if a1.facts != a2.facts || a1.Fn != f || a2.Fn != &g {
		t.Fatal("headers over one body do not share its facts")
	}
	if s1.Built() != 1 || s2.Built() != 0 || s1.Bytes() != s2.Bytes() {
		t.Fatalf("built %d and %d, charged %d and %d B", s1.Built(), s2.Built(), s1.Bytes(), s2.Bytes())
	}
	held := func() bool {
		bodies.mu.Lock()
		defer bodies.mu.Unlock()
		return bodies.m[f.Entry] != nil
	}
	s1, s2, a1, a2 = nil, nil, nil, nil
	for i := 0; i < 100 && held(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if held() {
		t.Fatal("the registry kept the body after every analysis was dropped")
	}
	if s3 := NewAnalysisSet(); s3.Of(f) == nil || s3.Built() != 1 {
		t.Fatal("a set after the facts were collected did not rebuild them")
	}
}

// TestFactsHoldNoFrontEnd walks everything reachable from the facts of
// analyses over a few programs, shared and not, and fails on any pointer
// into a front end (an ast or sem value) or to a Func or Program header:
// facts one compile built and others share must not keep that compile's
// front end alive, nor resolve an object through it.
func TestFactsHoldNoFrontEnd(t *testing.T) {
	srcs := []string{setProg, tablesProg}
	for seed := int64(0); seed < 8; seed++ {
		srcs = append(srcs, randprog.Gen(seed))
	}
	header := map[reflect.Type]bool{reflect.TypeOf(mach.Func{}): true, reflect.TypeOf(mach.Program{}): true}
	var bad []string
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			t := v.Type().Elem()
			if p := t.PkgPath(); p == "repro/internal/ast" || p == "repro/internal/sem" || header[t] {
				bad = append(bad, path+": "+v.Type().String())
				return
			}
			if !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem(), path)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"{}")
				walk(it.Value(), path+"{}")
			}
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			bad = append(bad, path+": "+v.Type().String())
		}
	}
	for i, src := range srcs {
		for _, cfg := range []compile.Config{compile.O2(), compile.O2NoRegAlloc()} {
			res, err := compile.Compile("t.mc", src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			set := NewAnalysisSet()
			for _, f := range res.Mach.Funcs {
				walk(reflect.ValueOf(set.Of(f).facts), "facts")
				walk(reflect.ValueOf(Analyze(f).facts), "facts")
			}
			if len(bad) > 0 {
				t.Fatalf("program %d: facts reach %s", i, strings.Join(bad, "; "))
			}
		}
	}
}
