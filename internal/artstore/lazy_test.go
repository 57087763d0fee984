package artstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/debugger"
	"repro/internal/mach"
)

// A read-back artifact's function bodies load on first use and charge the
// artifact's budget through the same store hook its analyses use.

const lazySrc = `
int g(int x) {
	int y = x * 2;
	return y + 1;
}
int h(int x) {
	return x - 1;
}
int main() {
	int s = g(3);
	print(s);
	return 0;
}
`

// readBack spills lazySrc at O2 into a fresh directory and returns a store
// built by cfg (its SpillDir set to that directory) and the artifact it
// reads back, whose bodies are all still encoded.
func readBack(t *testing.T, cfg Config) (*Store, *Artifact) {
	t.Helper()
	cfg.SpillDir = t.TempDir()
	cold := New(Config{SpillDir: cfg.SpillDir})
	if _, _, err := cold.Get("lazy.mc", lazySrc, compile.O2()); err != nil {
		t.Fatal(err)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	st := New(cfg)
	t.Cleanup(st.Close)
	a, hit, err := st.Get("lazy.mc", lazySrc, compile.O2())
	if err != nil || !hit || st.Stats().SpillHits != 1 {
		t.Fatalf("read-back: hit=%v err=%v stats=%+v", hit, err, st.Stats())
	}
	for _, f := range a.Res.Mach.Funcs {
		if f.Loaded() {
			t.Fatalf("%s loaded by the read", f.Name)
		}
	}
	return st, a
}

// TestLoadChargesTheArtifactBudget: a Load raises the entry's charge by
// exactly the body's size, once; a Load after the entry was evicted
// charges nothing; and eight sessions continuing into the same callee at
// once decode it once (run under -race).
func TestLoadChargesTheArtifactBudget(t *testing.T) {
	t.Run("charge", func(t *testing.T) {
		st, a := readBack(t, Config{MemoryBudget: 1 << 30})
		g := a.Res.Mach.LookupFunc("g")
		size, charged := a.Res.SizeBytes(), st.Stats().MemoryBytes
		g.Load()
		body := a.Res.SizeBytes() - size
		if body <= 0 || len(g.Blocks) == 0 {
			t.Fatalf("Load filled no body: %d bytes, %d blocks", body, len(g.Blocks))
		}
		if got := st.Stats().MemoryBytes - charged; got != body {
			t.Fatalf("Load charged %d B, the body is %d B", got, body)
		}
		g.Load()
		if got := st.Stats().MemoryBytes - charged; got != body {
			t.Fatalf("a second Load charged again: %d B in all, the body is %d B", got, body)
		}
	})

	t.Run("evicted", func(t *testing.T) {
		st, a := readBack(t, Config{MaxArtifacts: 1})
		name, src := srcFor(1)
		if _, _, err := st.Get(name, src, compile.O2()); err != nil { // evicts a
			t.Fatal(err)
		}
		accounted := st.Stats().MemoryBytes
		g := a.Res.Mach.LookupFunc("g")
		g.Load()
		if !g.Loaded() || len(g.Blocks) == 0 {
			t.Fatal("evicted artifact's body did not load")
		}
		if got := st.Stats().MemoryBytes; got != accounted {
			t.Fatalf("evicted artifact's Load charged the store: %d -> %d", accounted, got)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		st, a := readBack(t, Config{MemoryBudget: 1 << 30})
		size, charged := a.Res.SizeBytes(), st.Stats().MemoryBytes
		const sessions = 8
		var wg sync.WaitGroup
		seen := make([]*mach.Block, sessions)
		errs := make([]error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := debugger.NewShared(a.Res, a.Analyses)
				if err == nil {
					_, err = d.BreakAtStmt("g", 0)
				}
				var bp *debugger.Breakpoint
				if err == nil {
					bp, err = d.Continue()
				}
				if err == nil && (bp == nil || bp.Fn.Name != "g") {
					err = fmt.Errorf("stopped at %v, not in g", bp)
				}
				if err == nil {
					seen[i] = bp.Fn.Blocks[0]
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if seen[i] != seen[0] {
				t.Fatalf("session %d saw another decode of g", i)
			}
		}
		bodies := a.Res.SizeBytes() - size
		if got, want := st.Stats().MemoryBytes-charged, bodies+a.Analyses.Bytes(); got != want {
			t.Fatalf("charged %d B, want %d B: bodies %d B once plus analyses %d B", got, want, bodies, a.Analyses.Bytes())
		}
		if h := a.Res.Mach.LookupFunc("h"); h.Loaded() {
			t.Fatal("h, which no session reached, was loaded")
		}
	})
}

// TestEvictedInstanceDoesNotChargeItsReadBack: an artifact evicted while a
// session still holds it, and then read back as a new artifact, must not
// charge its loads and analyses to the new artifact's entry.
func TestEvictedInstanceDoesNotChargeItsReadBack(t *testing.T) {
	st, old := readBack(t, Config{MaxArtifacts: 1})
	name, src := srcFor(1)
	if _, _, err := st.Get(name, src, compile.O2()); err != nil { // evicts old
		t.Fatal(err)
	}
	cur, hit, err := st.Get("lazy.mc", lazySrc, compile.O2()) // reads it back
	if err != nil || !hit || cur == old {
		t.Fatalf("second read-back: hit=%v err=%v same instance=%v", hit, err, cur == old)
	}
	accounted := st.Stats().MemoryBytes
	if old.Analyses.Of(old.Res.Mach.LookupFunc("g")) == nil {
		t.Fatal("evicted artifact's analysis unusable")
	}
	if got := st.Stats().MemoryBytes; got != accounted {
		t.Fatalf("the evicted instance charged its read-back's entry: %d -> %d B", accounted, got)
	}
	if cur.Res.Mach.LookupFunc("g").Loaded() {
		t.Fatal("the resident instance loaded g")
	}
}
