package artstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debugger"
)

// Shared-front tests: a spill decode takes the checked front end of a
// resident sibling (same name and source, any config) instead of replaying
// it, and the artifact it builds answers exactly like one decoded on its
// own.

// evictToDisk leaves (name, src, cfg) on disk and not resident in a
// one-shard store holding at most two artifacts, with (name, src, keep)
// resident: it compiles cfg, then keep, then an unrelated program, which
// evicts cfg (the least recently used).
func evictToDisk(t *testing.T, st *Store, name, src string, cfg, keep compile.Config) *Artifact {
	t.Helper()
	if _, _, err := st.Get(name, src, cfg); err != nil {
		t.Fatal(err)
	}
	sib, _, err := st.Get(name, src, keep)
	if err != nil {
		t.Fatal(err)
	}
	on, osrc := srcFor(99)
	if _, _, err := st.Get(on, osrc, compile.O0()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.s.Resident(ident{Name: name, Src: src, Cfg: cfg}, func(m ident, _ *Artifact) bool {
		return m == ident{Name: name, Src: src, Cfg: cfg}
	}); ok {
		t.Fatal("artifact still resident; the test no longer reads it from disk")
	}
	return sib
}

func TestSpillDecodeSharesResidentSiblingFront(t *testing.T) {
	dir := t.TempDir()
	name, src := srcFor(5)
	st := New(Config{Shards: 1, MaxArtifacts: 2, SpillDir: dir})
	o0 := evictToDisk(t, st, name, src, compile.O2(), compile.O0())

	o2, hit, err := st.Get(name, src, compile.O2())
	if err != nil || !hit {
		t.Fatalf("read-back: hit=%v err=%v", hit, err)
	}
	if s := st.Stats(); s.SpillHits != 1 {
		t.Fatalf("read-back did not come from disk: %+v", s)
	}
	if o2.Res.Sem != o0.Res.Sem || o2.Res.File != o0.Res.File {
		t.Fatal("spill decode replayed the front end while a sibling was resident")
	}

	// With no sibling resident the decode replays its own front end.
	alone := New(Config{SpillDir: dir})
	a, hit, err := alone.Get(name, src, compile.O2())
	if err != nil || !hit {
		t.Fatalf("lone read-back: hit=%v err=%v", hit, err)
	}
	if a.Res.Sem == nil || a.Res.Sem == o0.Res.Sem {
		t.Fatal("lone spill decode did not replay the front end")
	}
	if a.Res.Mach.String() != o2.Res.Mach.String() {
		t.Fatal("shared and replayed decodes differ in machine code")
	}
}

// TestSharedFrontMatchesUnsharedDecode: over workloads with and without
// structs, the artifact decoded on a sibling's front end classifies every
// variable at every statement as the one decoded alone, and a debugger
// session over each prints the same reports at the same stops.
func TestSharedFrontMatchesUnsharedDecode(t *testing.T) {
	for _, w := range []string{"gcc", "espresso", "compress"} {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			name, src := w+".mc", bench.MustSource(w)
			st := New(Config{Shards: 1, MaxArtifacts: 2, SpillDir: dir})
			sib := evictToDisk(t, st, name, src, compile.O2(), compile.O2NoRegAlloc())
			shared, hit, err := st.Get(name, src, compile.O2())
			if err != nil || !hit || shared.Res.Sem != sib.Res.Sem {
				t.Fatalf("shared read-back: hit=%v err=%v shared=%v", hit, err, err == nil && shared.Res.Sem == sib.Res.Sem)
			}
			data, err := os.ReadFile(filepath.Join(dir, shared.ID()+".art"))
			if err != nil {
				t.Fatal(err)
			}
			alone, _, _, _, err := compile.DecodeSpill(data)
			if err != nil {
				t.Fatal(err)
			}
			if alone.Sem == sib.Res.Sem {
				t.Fatal("unshared decode shares the sibling's front end")
			}
			if got, want := classifyAll(shared.Res, shared.Analyses), classifyAll(alone, core.NewAnalysisSet()); got != want {
				t.Fatalf("classifications differ:\nshared:\n%s\nalone:\n%s", got, want)
			}
			if got, want := sessionTranscript(t, shared.Res), sessionTranscript(t, alone); got != want {
				t.Fatalf("session transcripts differ:\nshared:\n%s\nalone:\n%s", got, want)
			}
		})
	}
}

// classifyAll renders every classification of every variable in scope at
// every statement of every function.
func classifyAll(res *compile.Result, set *core.AnalysisSet) string {
	var b strings.Builder
	var class func(c *core.Classification, indent string)
	class = func(c *core.Classification, indent string) {
		fmt.Fprintf(&b, "%s%s#%d state=%d cause=%d why=%q src=%v", indent, c.Var.Name, c.Var.ID, c.State, c.Cause, c.Why, c.SrcStmts)
		if r := c.Recovered; r != nil {
			fmt.Fprintf(&b, " rec=%+v", *r)
		}
		b.WriteByte('\n')
		for i := range c.Fields {
			class(&c.Fields[i], indent+"  ")
		}
	}
	for _, f := range res.Mach.Funcs {
		a := set.Of(f)
		for s := 0; s < a.Table.NumStmts; s++ {
			cs, ok := a.ClassifyAllAt(s)
			fmt.Fprintf(&b, "%s s%d %v\n", f.Name, s, ok)
			for i := range cs {
				class(&cs[i], "  ")
			}
		}
	}
	return b.String()
}

// sessionTranscript breaks at the first three statements of every
// function, continues up to 40 times and records each stop's reports.
func sessionTranscript(t *testing.T, res *compile.Result) string {
	t.Helper()
	s, err := transcriptWith(res, core.NewAnalysisSet())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// transcriptWith is sessionTranscript over a session that draws its
// analyses from set; it may run on any goroutine.
func transcriptWith(res *compile.Result, set *core.AnalysisSet) (string, error) {
	d, err := debugger.NewShared(res, set)
	if err != nil {
		return "", err
	}
	for _, f := range res.Mach.Funcs {
		for s := 0; s < 3; s++ {
			d.BreakAtStmt(f.Name, s) // a statement with no location is skipped
		}
	}
	var b strings.Builder
	for i := 0; i < 40; i++ {
		bp, err := d.Continue()
		if err != nil {
			return "", err
		}
		if bp == nil {
			b.WriteString("exit\n")
			break
		}
		fmt.Fprintf(&b, "stop %s s%d line %d\n", bp.Fn.Name, bp.Stmt, bp.Line)
		rs, err := d.Info()
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			b.WriteString("  " + r.Display() + "\n")
		}
	}
	return b.String(), nil
}

// TestConcurrentSiblingGets races Gets of one source under three configs
// against a budget that keeps evicting them, with a debugger session open
// on every artifact returned: decodes take fronts from resident siblings
// while other sessions read those same programs.
func TestConcurrentSiblingGets(t *testing.T) {
	dir := t.TempDir()
	st := New(Config{Shards: 2, MaxArtifacts: 3, SpillDir: dir})
	defer st.Close()
	cfgs := []compile.Config{compile.O0(), compile.O2NoRegAlloc(), compile.O2()}
	srcs := [][2]string{}
	for i := 0; i < 2; i++ {
		name, src := srcFor(10 + i)
		srcs = append(srcs, [2]string{name, src})
	}
	want := map[string]string{}
	for _, s := range srcs {
		for _, cfg := range cfgs {
			a, _, err := st.Get(s[0], s[1], cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[a.ID()] = sessionTranscript(t, a.Res)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				s, cfg := srcs[(g+i)%len(srcs)], cfgs[(g*7+i)%len(cfgs)]
				a, _, err := st.Get(s[0], s[1], cfg)
				if err != nil {
					errs <- err
					return
				}
				d, err := debugger.NewShared(a.Res, a.Analyses)
				if err != nil {
					errs <- err
					return
				}
				if _, err := d.BreakAtStmt("main", 1); err != nil {
					errs <- err
					return
				}
				if _, err := d.Continue(); err != nil {
					errs <- err
					return
				}
				if _, err := d.Info(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := st.Stats(); s.SpillHits == 0 || s.Evictions == 0 {
		t.Fatalf("the race never read from disk: %+v", s)
	}
	for _, s := range srcs {
		for _, cfg := range cfgs {
			a, _, err := st.Get(s[0], s[1], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := sessionTranscript(t, a.Res); got != want[a.ID()] {
				t.Fatalf("%s after the race:\n%s\nwant:\n%s", a.ID(), got, want[a.ID()])
			}
		}
	}
}

func TestStoredArtifactCarriesNoIR(t *testing.T) {
	dir := t.TempDir()
	name, src := srcFor(6)
	st := New(Config{Shards: 1, MaxArtifacts: 2, SpillDir: dir})
	evictToDisk(t, st, name, src, compile.O2(), compile.O0())
	for _, cfg := range []compile.Config{compile.O0(), compile.O2()} { // computed, then read back
		a, _, err := st.Get(name, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Res.IR != nil {
			t.Fatalf("stored artifact %s keeps its optimized IR", a.ID())
		}
	}
}
