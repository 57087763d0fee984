package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mach"
)

const testProg = `
int main() {
	int x = 10;
	int y = x * 3;
	print(y);
	return y;
}
`

func intp(n int) *int { return &n }

func mustOK(t *testing.T, s *Server, req *Request) *Response {
	t.Helper()
	resp := s.Handle(req)
	if !resp.OK {
		t.Fatalf("%s failed: %+v", req.Cmd, resp.Error)
	}
	return resp
}

func compileAndOpen(t *testing.T, s *Server, name, src string) (artifact, session string) {
	t.Helper()
	c := mustOK(t, s, &Request{Cmd: "compile", Name: name, Src: src})
	o := mustOK(t, s, &Request{Cmd: "open-session", Artifact: c.Artifact})
	return c.Artifact, o.Session
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Options{})
	art, sess := compileAndOpen(t, s, "t.mc", testProg)
	if art == "" || sess == "" {
		t.Fatal("missing artifact/session ids")
	}

	b := mustOK(t, s, &Request{Cmd: "break", Session: sess, Func: "main", Stmt: intp(1)})
	if b.Stop == nil || b.Stop.Func != "main" || b.Stop.Stmt != 1 {
		t.Fatalf("break stop = %+v", b.Stop)
	}
	c := mustOK(t, s, &Request{Cmd: "continue", Session: sess})
	if c.Stop == nil || c.Exited {
		t.Fatalf("continue = %+v", c)
	}
	p := mustOK(t, s, &Request{Cmd: "print", Session: sess, Var: "x"})
	if len(p.Vars) != 1 || p.Vars[0].Name != "x" || p.Vars[0].State == "" {
		t.Fatalf("print x = %+v", p.Vars)
	}
	// At O2 the assignment is optimized away but recovery still reports
	// the expected value; either way the display leads with it.
	if !strings.HasPrefix(p.Vars[0].Display, "x = 10") {
		t.Fatalf("display = %q", p.Vars[0].Display)
	}
	in := mustOK(t, s, &Request{Cmd: "info", Session: sess})
	if len(in.Vars) < 2 {
		t.Fatalf("info returned %d vars", len(in.Vars))
	}
	st := mustOK(t, s, &Request{Cmd: "step", Session: sess})
	if st.Stop == nil && !st.Exited {
		t.Fatalf("step = %+v", st)
	}
	fin := mustOK(t, s, &Request{Cmd: "continue", Session: sess})
	if !fin.Exited || !strings.Contains(fin.Output, "30") {
		t.Fatalf("final continue = %+v", fin)
	}
	mustOK(t, s, &Request{Cmd: "close", Session: sess})
	if got := s.Snapshot().SessionsActive; got != 0 {
		t.Fatalf("sessions_active = %d after close", got)
	}
}

func TestErrorCodes(t *testing.T) {
	s := New(Options{MaxSessions: 1, StepBudget: 25})
	_, sess := compileAndOpen(t, s, "t.mc", testProg)

	cases := []struct {
		req  *Request
		code string
	}{
		{&Request{Cmd: "nope"}, CodeBadRequest},
		{&Request{Cmd: "compile"}, CodeBadRequest},
		{&Request{Cmd: "compile", Src: "int main( {", Name: "x.mc"}, CodeCompileError},
		{&Request{Cmd: "compile", Workload: "nosuchworkload"}, CodeBadRequest},
		{&Request{Cmd: "open-session", Artifact: "bogus"}, CodeNoSuchArtifact},
		{&Request{Cmd: "continue", Session: "bogus"}, CodeNoSuchSession},
		{&Request{Cmd: "break", Session: sess}, CodeBadRequest},
		{&Request{Cmd: "break", Session: sess, Line: 999}, CodeNoSuchLine},
		{&Request{Cmd: "break", Session: sess, Func: "nope", Stmt: intp(0)}, CodeNoSuchFunc},
		{&Request{Cmd: "break", Session: sess, Func: "main", Stmt: intp(999)}, CodeNoStmtLoc},
		{&Request{Cmd: "print", Session: sess, Var: "x"}, CodeNotStopped},
		{&Request{Cmd: "info", Session: sess}, CodeNotStopped},
	}
	for _, tc := range cases {
		resp := s.Handle(tc.req)
		if resp.OK || resp.Error == nil || resp.Error.Code != tc.code {
			t.Errorf("%+v -> %+v, want code %s", tc.req, resp.Error, tc.code)
		}
	}

	// Session limit: the one open session occupies the only slot.
	c := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if resp := s.Handle(&Request{Cmd: "open-session", Artifact: c.Artifact}); resp.OK || resp.Error.Code != CodeSessionLimit {
		t.Fatalf("open beyond limit = %+v", resp.Error)
	}
}

func TestStepBudgetCode(t *testing.T) {
	s := New(Options{StepBudget: 50})
	_, sess := compileAndOpen(t, s, "loop.mc", `
int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 100000; i++) { acc += i; }
	return acc;
}
`)
	resp := s.Handle(&Request{Cmd: "continue", Session: sess})
	if resp.OK || resp.Error == nil || resp.Error.Code != CodeBudget {
		t.Fatalf("continue under 50-step budget = %+v, want %s", resp.Error, CodeBudget)
	}
}

// TestCallDepthCode: unbounded recursion hits the VM's call-depth bound
// long before the default step budget, and answers with the budget code.
func TestCallDepthCode(t *testing.T) {
	s := New(Options{})
	_, sess := compileAndOpen(t, s, "deep.mc", `
int f(int n) { return f(n + 1); }
int main() { return f(0); }
`)
	resp := s.Handle(&Request{Cmd: "continue", Session: sess})
	if resp.OK || resp.Error == nil || resp.Error.Code != CodeBudget ||
		!strings.Contains(resp.Error.Message, "call depth") {
		t.Fatalf("continue into unbounded recursion = %+v, want %s naming the call depth", resp.Error, CodeBudget)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Options{})
	_, sess := compileAndOpen(t, s, "t.mc", testProg)
	// Corrupt the session so the next command panics inside the handler;
	// the server must answer with an internal error, not crash.
	s.mu.Lock()
	s.sessions[sess].dbg = nil
	s.mu.Unlock()
	resp := s.Handle(&Request{Cmd: "continue", Session: sess})
	if resp.OK || resp.Error == nil || resp.Error.Code != CodeInternal {
		t.Fatalf("panic not mapped to internal error: %+v", resp.Error)
	}
	if got := s.Snapshot().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// The server keeps serving.
	if resp := s.Handle(&Request{Cmd: "stats"}); !resp.OK {
		t.Fatal("server dead after panic")
	}
}

func TestCompileCacheSharedAcrossSessions(t *testing.T) {
	s := New(Options{})
	c1 := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if c1.Cached {
		t.Fatal("first compile claims cached")
	}
	c2 := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if !c2.Cached || c2.Artifact != c1.Artifact {
		t.Fatalf("second compile = %+v, want cache hit on %s", c2, c1.Artifact)
	}
	st := s.Snapshot()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters = %+v", st)
	}
	// Same source, different config: a distinct artifact.
	off := false
	c3 := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg,
		Config: &ConfigSpec{Opt: "O2", RegAlloc: &off}})
	if c3.Cached || c3.Artifact == c1.Artifact {
		t.Fatalf("config change did not produce a new artifact: %+v", c3)
	}
}

// TestConcurrentSessionStress drives >= 8 concurrent sessions over bench
// workloads: every session compiles (coalescing through the artifact
// cache), opens, sets breakpoints, and alternates continue/info/print for
// a bounded number of stops. Run under -race this exercises the shared
// cache, the shared AnalysisSet, and the session table.
func TestConcurrentSessionStress(t *testing.T) {
	const perWorkload = 4
	workloads := []string{"compress", "ear"}
	s := New(Options{MaxSessions: 2 * perWorkload * len(workloads)})

	var wg sync.WaitGroup
	errs := make(chan error, perWorkload*len(workloads))
	for _, w := range workloads {
		for i := 0; i < perWorkload; i++ {
			wg.Add(1)
			go func(w string, i int) {
				defer wg.Done()
				errs <- driveSession(s, w, i)
			}(w, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Snapshot()
	if st.CacheMisses != int64(len(workloads)) {
		t.Errorf("cache misses = %d, want %d (one compile per workload)", st.CacheMisses, len(workloads))
	}
	if want := int64(perWorkload*len(workloads) - len(workloads)); st.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, want)
	}
	if st.SessionsOpened != int64(perWorkload*len(workloads)) {
		t.Errorf("sessions_opened = %d, want %d", st.SessionsOpened, perWorkload*len(workloads))
	}
	if st.SessionsActive != 0 {
		t.Errorf("sessions_active = %d after all closed", st.SessionsActive)
	}
	if st.CyclesExecuted <= 0 {
		t.Error("cycles_executed not accounted")
	}
	// Analyses are shared per machine body: the total built must not
	// scale with the number of sessions, and a body two artifacts share
	// is analysed once.
	bodies := map[*mach.Block]bool{}
	s.store.Range(func(id string, a *Artifact) {
		for _, f := range a.Res.Mach.Funcs {
			bodies[f.Entry] = true
		}
	})
	if st.AnalysesBuilt != int64(len(bodies)) {
		t.Errorf("analyses_built = %d, want %d (one per distinct body)", st.AnalysesBuilt, len(bodies))
	}
}

// driveSession runs one scripted session over workload w via the public
// Handle surface, returning the first protocol failure.
func driveSession(s *Server, w string, seed int) error {
	c := s.Handle(&Request{Cmd: "compile", Workload: w})
	if !c.OK {
		return fmt.Errorf("%s: compile: %+v", w, c.Error)
	}
	o := s.Handle(&Request{Cmd: "open-session", Artifact: c.Artifact})
	if !o.OK {
		return fmt.Errorf("%s: open: %+v", w, o.Error)
	}
	sess := o.Session
	// Find a breakable statement in main (IDs differ per workload).
	var armed bool
	for stmt := seed % 3; stmt < 20 && !armed; stmt++ {
		b := s.Handle(&Request{Cmd: "break", Session: sess, Func: "main", Stmt: intp(stmt)})
		if b.OK {
			armed = true
		}
	}
	if !armed {
		return fmt.Errorf("%s: no breakable statement in main", w)
	}
	for hit := 0; hit < 3; hit++ {
		r := s.Handle(&Request{Cmd: "continue", Session: sess})
		if !r.OK {
			return fmt.Errorf("%s: continue: %+v", w, r.Error)
		}
		if r.Exited {
			break
		}
		in := s.Handle(&Request{Cmd: "info", Session: sess})
		if !in.OK {
			return fmt.Errorf("%s: info: %+v", w, in.Error)
		}
		if len(in.Vars) > 0 {
			p := s.Handle(&Request{Cmd: "print", Session: sess, Var: in.Vars[0].Name})
			if !p.OK {
				return fmt.Errorf("%s: print %s: %+v", w, in.Vars[0].Name, p.Error)
			}
		}
		if st := s.Handle(&Request{Cmd: "step", Session: sess}); !st.OK {
			return fmt.Errorf("%s: step: %+v", w, st.Error)
		}
		if s.Handle(&Request{Cmd: "where", Session: sess}).OK == false {
			return fmt.Errorf("%s: where failed", w)
		}
	}
	if cl := s.Handle(&Request{Cmd: "close", Session: sess}); !cl.OK {
		return fmt.Errorf("%s: close: %+v", w, cl.Error)
	}
	return nil
}

func TestIdleSessionReaping(t *testing.T) {
	s := New(Options{SessionTTL: 40 * time.Millisecond, ReapInterval: 10 * time.Millisecond})
	defer s.Close()
	_, sess := compileAndOpen(t, s, "t.mc", testProg)

	// An active session survives: keep touching it past several TTLs.
	for i := 0; i < 5; i++ {
		time.Sleep(15 * time.Millisecond)
		if r := s.Handle(&Request{Cmd: "where", Session: sess}); !r.OK {
			t.Fatalf("active session reaped at touch %d: %+v", i, r.Error)
		}
	}

	// An idle session is closed and its slot freed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Snapshot()
		if st.SessionsActive == 0 && st.SessionsReaped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r := s.Handle(&Request{Cmd: "where", Session: sess}); r.OK || r.Error.Code != CodeNoSuchSession {
		t.Fatalf("reaped session still answers: %+v", r)
	}
	// The freed slot is reusable.
	if _, sess2 := compileAndOpen(t, s, "t.mc", testProg); sess2 == "" {
		t.Fatal("could not open a session after reaping")
	}
}

func TestReapingDisabledByDefault(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if n := s.ReapIdleSessions(); n != 0 {
		t.Fatalf("reaped %d sessions with reaping disabled", n)
	}
}

func TestRestartWithSpillKeepsWarmSet(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{SpillDir: dir})
	c1 := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if c1.Cached {
		t.Fatal("first compile claims cached")
	}
	s.Close() // flushes the warm set

	restarted := New(Options{SpillDir: dir})
	defer restarted.Close()
	c2 := mustOK(t, restarted, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if !c2.Cached || c2.Artifact != c1.Artifact {
		t.Fatalf("restart lost the warm set: %+v (want cached %s)", c2, c1.Artifact)
	}
	st := restarted.Snapshot()
	if st.SpillHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
	// Sessions on the rehydrated artifact behave identically.
	o := mustOK(t, restarted, &Request{Cmd: "open-session", Artifact: c2.Artifact})
	mustOK(t, restarted, &Request{Cmd: "break", Session: o.Session, Func: "main", Stmt: intp(1)})
	cont := mustOK(t, restarted, &Request{Cmd: "continue", Session: o.Session})
	if cont.Stop == nil {
		t.Fatalf("continue on rehydrated artifact = %+v", cont)
	}
	p := mustOK(t, restarted, &Request{Cmd: "print", Session: o.Session, Var: "x"})
	if len(p.Vars) != 1 || !strings.HasPrefix(p.Vars[0].Display, "x = 10") {
		t.Fatalf("print on rehydrated artifact = %+v", p.Vars)
	}
}

func TestStatsConsistentViewIncludesMemoryAndSpill(t *testing.T) {
	s := New(Options{MemoryBudget: 1 << 30, Shards: 4})
	defer s.Close()
	_, sess := compileAndOpen(t, s, "t.mc", testProg)
	mustOK(t, s, &Request{Cmd: "break", Session: sess, Func: "main", Stmt: intp(1)})
	mustOK(t, s, &Request{Cmd: "continue", Session: sess})
	st := s.Snapshot()
	if st.CacheMemoryBytes <= 0 {
		t.Fatalf("cache_memory_bytes = %d", st.CacheMemoryBytes)
	}
	if st.AnalysisBytes <= 0 || st.AnalysisBytes >= st.CacheMemoryBytes {
		t.Fatalf("analysis_bytes = %d of %d", st.AnalysisBytes, st.CacheMemoryBytes)
	}
	if st.CacheShards != 4 {
		t.Fatalf("cache_shards = %d", st.CacheShards)
	}
	if st.CacheMemoryBudget != 1<<30 {
		t.Fatalf("cache_memory_budget = %d", st.CacheMemoryBudget)
	}
	if st.SessionsActive != 1 {
		t.Fatalf("sessions_active = %d", st.SessionsActive)
	}
}

// TestWireBytes pins the exact bytes Serve writes for a scripted session:
// field order, omitempty, the HTML-safe escapes of <, > and &, and the
// trailing newline. Compile responses are left out because compile_ms is
// a wall-clock time; the session id and handle are filled in at run time.
func TestWireBytes(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	c := mustOK(t, s, &Request{Cmd: "compile", Name: "w.mc",
		Src: `int main() { int i; i = 3; print("<a&b>\t"); print(i); print("\n"); return 0; }`})
	o := mustOK(t, s, &Request{Cmd: "open-session", Artifact: c.Artifact})

	script := strings.Join([]string{
		`{"id":3,"cmd":"break","session":"SESS","handle":"HANDLE","func":"main","stmt":1}`,
		`{"id":4,"cmd":"continue","session":"SESS"}`,
		`{"id":5,"cmd":"info","session":"SESS"}`,
		`{"id":6,"cmd":"print","session":"SESS","var":"<x>"}`,
		`{"id":7,"cmd":"continue","session":"SESS"}`,
		`{"id":8,"cmd":"batch","reqs":[{"id":9,"cmd":"nope"}]}`,
	}, "\n") + "\n"
	script = strings.NewReplacer("SESS", o.Session, "HANDLE", o.Handle).Replace(script)

	var out strings.Builder
	if err := s.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	want := strings.Join([]string{
		`{"id":3,"ok":true,"stop":{"func":"main","stmt":1,"line":1}}`,
		`{"id":4,"ok":true,"stop":{"func":"main","stmt":1,"line":1}}`,
		`{"id":5,"ok":true,"vars":[{"name":"i","state":"uninitialized","display":"i = \u003cuninitialized\u003e"}]}`,
		`{"id":6,"ok":false,"error":{"code":"no-such-var","message":"debugger: no variable in scope: \"\u003cx\u003e\" at this breakpoint"}}`,
		`{"id":7,"ok":true,"exited":true,"output":"\u003ca\u0026b\u003e\t3\n"}`,
		`{"id":8,"ok":true,"results":[{"id":9,"ok":false,"error":{"code":"bad-request","message":"unknown command \"nope\""}}]}`,
	}, "\n") + "\n"
	if got := out.String(); got != want {
		t.Errorf("wire bytes differ\n got:\n%s\nwant:\n%s", got, want)
	}
}
