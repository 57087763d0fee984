package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/pkg/minic"
)

// The Figure 3 program: partial dead-code elimination leaves x stale on
// the else path, so the debugger must print it with a warning.
const prog = `int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() { return g(0, 5, 4); }`

// runTranscript drives one scripted connection through the server, the
// way the mcd binary does on stdin/stdout, and decodes the responses.
func runTranscript(t *testing.T, s *server.Server, reqs []server.Request) []server.Response {
	t.Helper()
	var in strings.Builder
	enc := json.NewEncoder(&in)
	for _, r := range reqs {
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := s.Serve(strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	var resps []server.Response
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var r server.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		resps = append(resps, r)
	}
	return resps
}

// TestScriptedTranscript is the protocol golden test: a scripted
// compile → open-session → break → continue → print → info → stats
// conversation, with every classification warning identical to what the
// command-line debugger (mcdbg) prints for the same program and commands.
func TestScriptedTranscript(t *testing.T) {
	s := server.New(server.Options{})
	stmt := 1
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "compile", Name: "fig3.mc", Src: prog},
		{ID: 2, Cmd: "compile", Name: "fig3.mc", Src: prog}, // must hit the cache
	})
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if !resps[0].OK || resps[0].Cached || resps[0].Artifact == "" {
		t.Fatalf("compile = %+v", resps[0])
	}
	if !resps[1].OK || !resps[1].Cached || resps[1].Artifact != resps[0].Artifact {
		t.Fatalf("re-compile = %+v, want cache hit on %s", resps[1], resps[0].Artifact)
	}
	art := resps[0].Artifact

	resps = runTranscript(t, s, []server.Request{
		{ID: 3, Cmd: "open-session", Artifact: art},
	})
	sess, handle := resps[0].Session, resps[0].Handle
	if sess == "" || handle == "" {
		t.Fatalf("open-session = %+v", resps[0])
	}

	// Each runTranscript call is its own connection, so the session is
	// detached between them; the first command presents the handle to
	// reattach (capability-style), the rest ride the new ownership.
	resps = runTranscript(t, s, []server.Request{
		{ID: 4, Cmd: "break", Session: sess, Handle: handle, Func: "g", Stmt: &stmt},
		{ID: 5, Cmd: "continue", Session: sess},
		{ID: 6, Cmd: "print", Session: sess, Var: "x"},
		{ID: 7, Cmd: "info", Session: sess},
		{ID: 8, Cmd: "stats"},
	})
	if len(resps) != 5 {
		t.Fatalf("got %d responses", len(resps))
	}
	brk, cont, prnt, info, stats := resps[0], resps[1], resps[2], resps[3], resps[4]
	if !brk.OK || brk.Stop == nil || brk.Stop.Func != "g" || brk.Stop.Stmt != 1 {
		t.Fatalf("break = %+v", brk)
	}
	if !cont.OK || cont.Stop == nil || cont.Exited {
		t.Fatalf("continue = %+v", cont)
	}
	if !prnt.OK || len(prnt.Vars) != 1 {
		t.Fatalf("print = %+v", prnt)
	}
	if !info.OK || len(info.Vars) == 0 {
		t.Fatalf("info = %+v", info)
	}
	if !stats.OK || stats.Stats == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if st := stats.Stats; st.CacheHits < 1 || st.CacheMisses < 1 || st.SessionsActive != 1 ||
		st.AnalysesBuilt < 1 || st.CyclesExecuted <= 0 {
		t.Fatalf("stats snapshot = %+v", st)
	}
	// The unified store's view arrives in the same snapshot: memory
	// accounting (artifact + analyses), shard count, and an idle spill
	// tier for this memory-only server.
	if st := stats.Stats; st.CacheMemoryBytes <= 0 || st.AnalysisBytes <= 0 ||
		st.AnalysisBytes >= st.CacheMemoryBytes || st.CacheShards < 1 ||
		st.SessionsReaped != 0 || st.SpillHits != 0 || st.SpillWrites != 0 {
		t.Fatalf("store stats snapshot = %+v", st)
	}

	// The same session driven through the debugger library exactly the
	// way cmd/mcdbg does it: identical commands must yield identical
	// warning-annotated displays.
	want := mcdbgDisplays(t)
	if got := prnt.Vars[0].Display; got != want["x"] {
		t.Errorf("print x over protocol = %q, mcdbg says %q", got, want["x"])
	}
	for _, v := range info.Vars {
		if got := v.Display; got != want[v.Name] {
			t.Errorf("info %s over protocol = %q, mcdbg says %q", v.Name, got, want[v.Name])
		}
	}
	// This program's point: x must not be displayed as a bare value —
	// depending on the pipeline it is either warned about or recovered.
	if d := prnt.Vars[0].Display; !strings.Contains(d, "WARNING") &&
		!strings.Contains(d, "recovered") && !strings.Contains(d, "unavailable") {
		t.Errorf("x displayed with no annotation: %q", d)
	}
}

// The SROA walkthrough program (examples/sroa): one struct whose three
// fields end at the print with three different verdicts — sum current,
// bias eliminated but recovered as the constant 20, scratch noncurrent
// with no recovery.
const sroaProg = `
struct Acc { int sum; int bias; int scratch; };

int f(int n) {
  struct Acc a;
  int i;
  a.sum = 0;
  a.bias = 20;
  a.scratch = n * 3;
  for (i = 0; i < n; i = i + 1) {
    a.sum = a.sum + a.scratch + i;
  }
  a.scratch = a.sum * 5;
  print(a.sum);
  return a.sum;
}

int main() { return f(7); }
`

// TestSROATranscript is the aggregate-debugging golden transcript: the
// Figure 5(a) configuration (O2, no regalloc) over the wire, stopping at
// the print and asserting one field current, one endangered-with-recovery,
// one noncurrent — each display identical to the library session (the way
// mcdbg renders it), the aggregate report carrying nested per-field
// sub-reports, and the server's SROA counters advancing.
func TestSROATranscript(t *testing.T) {
	s := server.New(server.Options{})
	noRegs := false
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "compile", Name: "sroa.mc", Src: sroaProg,
			Config: &server.ConfigSpec{Opt: "O2", RegAlloc: &noRegs}},
	})
	if len(resps) != 1 || !resps[0].OK || resps[0].Artifact == "" {
		t.Fatalf("compile = %+v", resps)
	}
	art := resps[0].Artifact

	resps = runTranscript(t, s, []server.Request{{ID: 2, Cmd: "open-session", Artifact: art}})
	sess, handle := resps[0].Session, resps[0].Handle
	if sess == "" || handle == "" {
		t.Fatalf("open-session = %+v", resps[0])
	}

	resps = runTranscript(t, s, []server.Request{
		{ID: 3, Cmd: "break", Session: sess, Handle: handle, Line: 13},
		{ID: 4, Cmd: "continue", Session: sess},
		{ID: 5, Cmd: "print", Session: sess, Var: "a"},
		{ID: 6, Cmd: "print", Session: sess, Var: "a.sum"},
		{ID: 7, Cmd: "print", Session: sess, Var: "a.bias"},
		{ID: 8, Cmd: "print", Session: sess, Var: "a.scratch"},
		{ID: 9, Cmd: "stats"},
	})
	if len(resps) != 7 {
		t.Fatalf("got %d responses", len(resps))
	}
	cont := resps[1]
	if !cont.OK || cont.Stop == nil || cont.Exited || cont.Stop.Func != "f" {
		t.Fatalf("continue = %+v", cont)
	}

	// The same session through the library, the way cmd/mcdbg drives it:
	// wire displays must be identical.
	a, err := minic.Compile("sroa.mc", sroaProg, minic.WithOptLevel(2), minic.WithRegAlloc(false))
	if err != nil {
		t.Fatal(err)
	}
	d, err := minic.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BreakAtLine(13); err != nil {
		t.Fatal(err)
	}
	if bp, err := d.Continue(); err != nil || bp == nil {
		t.Fatalf("continue: %v %v", bp, err)
	}
	for i, name := range []string{"a", "a.sum", "a.bias", "a.scratch"} {
		r := resps[2+i]
		if !r.OK || len(r.Vars) != 1 {
			t.Fatalf("print %s = %+v", name, r)
		}
		want, err := d.Print(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Vars[0].Display; got != want.Display() {
			t.Errorf("print %s over protocol = %q, mcdbg says %q", name, got, want.Display())
		}
	}

	// The three verdicts of the walkthrough, pinned.
	agg, sum, bias, scratch := resps[2].Vars[0], resps[3].Vars[0], resps[4].Vars[0], resps[5].Vars[0]
	if sum.State != "current" || strings.Contains(sum.Display, "WARNING") {
		t.Errorf("a.sum should be current: %+v", sum)
	}
	if !strings.Contains(bias.Display, "recovered") || !strings.Contains(bias.Display, "constant 20") {
		t.Errorf("a.bias should be recovered as constant 20: %q", bias.Display)
	}
	if scratch.State != "noncurrent" || !strings.Contains(scratch.Display, "WARNING: noncurrent") ||
		strings.Contains(scratch.Display, "recovered") {
		t.Errorf("a.scratch should be noncurrent without recovery: %+v", scratch)
	}
	// The aggregate itemizes its fields as nested sub-reports and is
	// reported partially resident.
	if agg.State != "noncurrent" || !strings.Contains(agg.Display, "partially resident") {
		t.Errorf("aggregate a = %+v", agg)
	}
	if len(agg.Fields) != 3 {
		t.Fatalf("aggregate a carries %d field reports, want 3: %+v", len(agg.Fields), agg.Fields)
	}
	for i, want := range []string{"a.sum", "a.bias", "a.scratch"} {
		if agg.Fields[i].Name != want {
			t.Errorf("field %d = %q, want %q", i, agg.Fields[i].Name, want)
		}
	}

	// SROA instrumentation: the compile split at least one aggregate, and
	// the prints classified fields.
	st := resps[6].Stats
	if st == nil {
		t.Fatalf("stats = %+v", resps[6])
	}
	if st.SROASplits < 1 {
		t.Errorf("stats.SROASplits = %d, want >= 1", st.SROASplits)
	}
	if st.FieldsClassified < 3 {
		t.Errorf("stats.FieldsClassified = %d, want >= 3", st.FieldsClassified)
	}
}

// mcdbgDisplays reproduces `mcdbg fig3.mc break g 1 continue info` using
// the same public API the CLI uses, returning name -> display line.
func mcdbgDisplays(t *testing.T) map[string]string {
	t.Helper()
	a, err := minic.Compile("fig3.mc", prog, minic.WithOptLevel(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := minic.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BreakAtStmt("g", 1); err != nil {
		t.Fatal(err)
	}
	if bp, err := d.Continue(); err != nil || bp == nil {
		t.Fatalf("continue: %v %v", bp, err)
	}
	rs, err := d.Info()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rs {
		out[r.Name] = r.Display()
	}
	return out
}

// TestSpillRestartTranscript is the disk-tier round trip at the daemon
// level: a server with a spill dir compiles and shuts down, a second
// server over the same dir serves the same compile as a warm hit, and the
// rehydrated artifact's session transcript is identical.
func TestSpillRestartTranscript(t *testing.T) {
	dir := t.TempDir()
	stmt := 1

	script := func(sess, handle string) []server.Request {
		return []server.Request{
			{ID: 10, Cmd: "break", Session: sess, Handle: handle, Func: "g", Stmt: &stmt},
			{ID: 11, Cmd: "continue", Session: sess},
			{ID: 12, Cmd: "print", Session: sess, Var: "x"},
			{ID: 13, Cmd: "info", Session: sess},
		}
	}
	drive := func(s *server.Server) (art string, cached bool, resps []server.Response) {
		t.Helper()
		c := runTranscript(t, s, []server.Request{{ID: 1, Cmd: "compile", Name: "fig3.mc", Src: prog}})
		if !c[0].OK {
			t.Fatalf("compile = %+v", c[0])
		}
		o := runTranscript(t, s, []server.Request{{ID: 2, Cmd: "open-session", Artifact: c[0].Artifact}})
		if o[0].Session == "" || o[0].Handle == "" {
			t.Fatalf("open = %+v", o[0])
		}
		return c[0].Artifact, c[0].Cached, runTranscript(t, s, script(o[0].Session, o[0].Handle))
	}

	s1 := server.New(server.Options{SpillDir: dir})
	art1, cached1, serial1 := drive(s1)
	if cached1 {
		t.Fatal("cold compile claims cached")
	}
	s1.Close()

	s2 := server.New(server.Options{SpillDir: dir})
	defer s2.Close()
	art2, cached2, serial2 := drive(s2)
	if !cached2 || art2 != art1 {
		t.Fatalf("restart compile = (%s, cached=%v), want warm hit on %s", art2, cached2, art1)
	}
	st := runTranscript(t, s2, []server.Request{{ID: 99, Cmd: "stats"}})[0].Stats
	if st.SpillHits < 1 || st.CacheMisses != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
	// The rehydrated artifact must answer every command identically.
	if len(serial1) != len(serial2) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(serial1), len(serial2))
	}
	for i := range serial1 {
		a, err := json.Marshal(&serial1[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&serial2[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("command %d differs after restart:\ncold: %s\nwarm: %s", i, a, b)
		}
	}
}

// TestSpillSiblingFrontTranscript: an artifact read back from disk while
// a sibling of the same source (another config) is resident decodes on the
// sibling's checked front end; its session transcript must equal that of
// the same artifact read back alone.
func TestSpillSiblingFrontTranscript(t *testing.T) {
	dir := t.TempDir()
	stmt := 1
	o0 := &server.ConfigSpec{Opt: "O0"}
	compileReq := func(cfg *server.ConfigSpec) server.Request {
		return server.Request{ID: 1, Cmd: "compile", Name: "fig3.mc", Src: prog, Config: cfg}
	}
	transcript := func(s *server.Server, art string) []string {
		t.Helper()
		o := runTranscript(t, s, []server.Request{{ID: 2, Cmd: "open-session", Artifact: art}})
		if o[0].Session == "" {
			t.Fatalf("open = %+v", o[0])
		}
		sess, handle := o[0].Session, o[0].Handle
		var out []string
		for _, r := range runTranscript(t, s, []server.Request{
			{ID: 10, Cmd: "break", Session: sess, Handle: handle, Func: "g", Stmt: &stmt},
			{ID: 11, Cmd: "continue", Session: sess},
			{ID: 12, Cmd: "print", Session: sess, Var: "x"},
			{ID: 13, Cmd: "info", Session: sess},
		}) {
			b, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}

	s1 := server.New(server.Options{SpillDir: dir})
	for _, cfg := range []*server.ConfigSpec{nil, o0} {
		if c := runTranscript(t, s1, []server.Request{compileReq(cfg)}); !c[0].OK || c[0].Cached {
			t.Fatalf("cold compile = %+v", c[0])
		}
	}
	s1.Close() // flushes both

	// Alone: only the O2 artifact is read back, so its decode replays.
	alone := server.New(server.Options{SpillDir: dir})
	defer alone.Close()
	c := runTranscript(t, alone, []server.Request{compileReq(nil)})[0]
	if !c.OK || !c.Cached {
		t.Fatalf("lone read-back = %+v", c)
	}
	want := transcript(alone, c.Artifact)

	// Shared: the O0 sibling is read back first and stays resident.
	shared := server.New(server.Options{SpillDir: dir})
	defer shared.Close()
	for _, cfg := range []*server.ConfigSpec{o0, nil} {
		if c := runTranscript(t, shared, []server.Request{compileReq(cfg)}); !c[0].OK || !c[0].Cached {
			t.Fatalf("sibling read-back = %+v", c[0])
		}
	}
	if st := runTranscript(t, shared, []server.Request{{ID: 99, Cmd: "stats"}})[0].Stats; st.SpillHits != 2 || st.CacheMisses != 0 {
		t.Fatalf("sibling stats = %+v", st)
	}
	got := transcript(shared, c.Artifact)
	if len(got) != len(want) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("command %d differs on a shared front end:\nalone:  %s\nshared: %s", i, want[i], got[i])
		}
	}
}

// TestBatchMatchesSerial is the batch golden test: the same break →
// continue → print → info conversation driven once as four serial
// request lines and once as a single batch request over two sessions on
// the same artifact must produce byte-identical per-command response
// JSON — displays, warnings, stops and all.
func TestBatchMatchesSerial(t *testing.T) {
	s := server.New(server.Options{})
	stmt := 1
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "compile", Name: "fig3.mc", Src: prog},
	})
	art := resps[0].Artifact
	if art == "" {
		t.Fatalf("compile = %+v", resps[0])
	}
	resps = runTranscript(t, s, []server.Request{
		{ID: 2, Cmd: "open-session", Artifact: art},
		{ID: 3, Cmd: "open-session", Artifact: art},
	})
	serialSess, batchSess := resps[0], resps[1]
	if serialSess.Session == "" || batchSess.Session == "" {
		t.Fatalf("open-session = %+v", resps)
	}

	script := func(o server.Response) []server.Request {
		return []server.Request{
			{ID: 10, Cmd: "break", Session: o.Session, Handle: o.Handle, Func: "g", Stmt: &stmt},
			{ID: 11, Cmd: "continue", Session: o.Session},
			{ID: 12, Cmd: "print", Session: o.Session, Var: "x"},
			{ID: 13, Cmd: "info", Session: o.Session},
		}
	}
	serial := runTranscript(t, s, script(serialSess))
	batched := runTranscript(t, s, []server.Request{
		{ID: 20, Cmd: "batch", Reqs: script(batchSess)},
	})
	if len(batched) != 1 || !batched[0].OK {
		t.Fatalf("batch = %+v", batched)
	}
	results := batched[0].Results
	if len(serial) != len(results) {
		t.Fatalf("serial answered %d, batch answered %d", len(serial), len(results))
	}
	for i := range serial {
		sj, err := json.Marshal(&serial[i])
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(&results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(bj) {
			t.Errorf("sub-command %d differs:\nserial:  %s\nbatched: %s", i, sj, bj)
		}
	}
}

// TestBatchErrorIsolation checks that one failing sub-command answers
// with its own error in its slot while the rest of the batch — before
// and after it — succeeds, and the batch response itself is ok.
func TestBatchErrorIsolation(t *testing.T) {
	s := server.New(server.Options{})
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "compile", Name: "fig3.mc", Src: prog},
	})
	art := resps[0].Artifact
	resps = runTranscript(t, s, []server.Request{{ID: 2, Cmd: "open-session", Artifact: art}})
	sess, handle := resps[0].Session, resps[0].Handle

	stmt := 1
	resps = runTranscript(t, s, []server.Request{
		{ID: 3, Cmd: "batch", Reqs: []server.Request{
			{ID: 30, Cmd: "break", Session: sess, Handle: handle, Func: "g", Stmt: &stmt},
			{ID: 31, Cmd: "print", Session: sess, Var: "x"}, // not stopped yet
			{ID: 32, Cmd: "frobnicate"},                     // unknown command
			{ID: 33, Cmd: "batch"},                          // nesting rejected
			{ID: 34, Cmd: "continue", Session: sess},
			{ID: 35, Cmd: "info", Session: sess},
		}},
	})
	if len(resps) != 1 || !resps[0].OK {
		t.Fatalf("batch = %+v", resps)
	}
	r := resps[0].Results
	if len(r) != 6 {
		t.Fatalf("got %d results", len(r))
	}
	if !r[0].OK || r[0].Stop == nil {
		t.Errorf("break should succeed: %+v", r[0])
	}
	if r[1].OK || r[1].Error == nil || r[1].Error.Code != server.CodeNotStopped {
		t.Errorf("print before stop = %+v, want %s", r[1].Error, server.CodeNotStopped)
	}
	if r[2].OK || r[2].Error == nil || r[2].Error.Code != server.CodeBadRequest {
		t.Errorf("unknown command = %+v, want %s", r[2].Error, server.CodeBadRequest)
	}
	if r[3].OK || r[3].Error == nil || r[3].Error.Code != server.CodeBadRequest {
		t.Errorf("nested batch = %+v, want %s", r[3].Error, server.CodeBadRequest)
	}
	if !r[4].OK || r[4].Stop == nil {
		t.Errorf("continue after failed sub-commands should still hit the breakpoint: %+v", r[4])
	}
	if !r[5].OK || len(r[5].Vars) == 0 {
		t.Errorf("info should succeed after the batch's earlier errors: %+v", r[5])
	}
	// Sub-command IDs must be echoed so clients can correlate.
	for i, want := range []int64{30, 31, 32, 33, 34, 35} {
		if r[i].ID != want {
			t.Errorf("result %d echoed id %d, want %d", i, r[i].ID, want)
		}
	}
}

// TestAuthReconnectTranscript is the hardening golden test at the
// daemon level: a token-protected server refuses unauthenticated and
// wrongly-authenticated commands, admits an authenticated connection,
// and — after that connection drops mid-session — lets a fresh
// connection attach with the session handle and resume at a stop whose
// `where` response is byte-identical to the pre-drop one.
func TestAuthReconnectTranscript(t *testing.T) {
	s := server.New(server.Options{AuthToken: "hunter2"})
	defer s.Close()
	stmt := 1

	// Connection 1: no token. Only stats is served.
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "stats"},
		{ID: 2, Cmd: "compile", Name: "fig3.mc", Src: prog},
		{ID: 3, Cmd: "auth", Token: "wrong"},
		{ID: 4, Cmd: "compile", Name: "fig3.mc", Src: prog},
	})
	if !resps[0].OK {
		t.Fatalf("unauthenticated stats = %+v", resps[0])
	}
	if resps[1].OK || resps[1].Error.Code != server.CodeAuthRequired {
		t.Fatalf("unauthenticated compile = %+v, want %s", resps[1], server.CodeAuthRequired)
	}
	if resps[2].OK || resps[2].Error.Code != server.CodeAuthFailed {
		t.Fatalf("wrong auth = %+v, want %s", resps[2], server.CodeAuthFailed)
	}
	if resps[3].OK || resps[3].Error.Code != server.CodeAuthRequired {
		t.Fatalf("compile after failed auth = %+v, want %s", resps[3], server.CodeAuthRequired)
	}

	// Connection 2: auth, compile, open, run to the breakpoint, record
	// where — then the connection ends (drops) with the session parked.
	resps = runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "auth", Token: "hunter2"},
		{ID: 2, Cmd: "compile", Name: "fig3.mc", Src: prog},
	})
	if !resps[0].OK || !resps[1].OK {
		t.Fatalf("auth+compile = %+v", resps)
	}
	art := resps[1].Artifact
	resps = runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "auth", Token: "hunter2"},
		{ID: 2, Cmd: "open-session", Artifact: art},
	})
	sess, handle := resps[1].Session, resps[1].Handle
	if sess == "" || handle == "" {
		t.Fatalf("open-session = %+v", resps[1])
	}
	resps = runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "auth", Token: "hunter2"},
		{ID: 2, Cmd: "break", Session: sess, Handle: handle, Func: "g", Stmt: &stmt},
		{ID: 3, Cmd: "continue", Session: sess},
		{ID: 9, Cmd: "where", Session: sess},
	})
	if !resps[2].OK || resps[2].Stop == nil {
		t.Fatalf("continue = %+v", resps[2])
	}
	whereBefore, err := json.Marshal(&resps[3])
	if err != nil {
		t.Fatal(err)
	}

	// Connection 3: authenticated but without the handle — the detached
	// session is not claimable by session id alone.
	resps = runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "auth", Token: "hunter2"},
		{ID: 2, Cmd: "where", Session: sess},
		{ID: 3, Cmd: "attach", Session: sess, Handle: "0123456789abcdef0123456789abcdef"},
	})
	if resps[1].OK || resps[1].Error.Code != server.CodeNotOwner {
		t.Fatalf("where without handle = %+v, want %s", resps[1], server.CodeNotOwner)
	}
	if resps[2].OK || resps[2].Error.Code != server.CodeNotOwner {
		t.Fatalf("attach with forged handle = %+v, want %s", resps[2], server.CodeNotOwner)
	}

	// Connection 4: attach with the real handle and re-issue `where`
	// under the same request id — the response must be byte-identical to
	// the pre-drop transcript line, and the session must still execute.
	resps = runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "auth", Token: "hunter2"},
		{ID: 5, Cmd: "attach", Session: sess, Handle: handle},
		{ID: 9, Cmd: "where", Session: sess},
		{ID: 7, Cmd: "continue", Session: sess},
		{ID: 8, Cmd: "close", Session: sess},
	})
	if !resps[1].OK || resps[1].Stop == nil {
		t.Fatalf("attach = %+v", resps[1])
	}
	whereAfter, err := json.Marshal(&resps[2])
	if err != nil {
		t.Fatal(err)
	}
	if string(whereBefore) != string(whereAfter) {
		t.Errorf("where differs across reconnect:\nbefore: %s\nafter:  %s", whereBefore, whereAfter)
	}
	if !resps[3].OK || !resps[3].Exited {
		t.Fatalf("continue after reconnect = %+v", resps[3])
	}
	if !resps[4].OK {
		t.Fatalf("close = %+v", resps[4])
	}

	st := runTranscript(t, s, []server.Request{{ID: 1, Cmd: "stats"}})[0].Stats
	if st.AuthFailures < 1 || st.ConnsTotal < 6 || st.SessionsActive != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestMalformedLine checks the bad-request path of the wire loop.
func TestMalformedLine(t *testing.T) {
	s := server.New(server.Options{})
	var out strings.Builder
	if err := s.Serve(strings.NewReader("this is not json\n"), &out); err != nil {
		t.Fatal(err)
	}
	var r server.Response
	if err := json.Unmarshal([]byte(out.String()), &r); err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Error == nil || r.Error.Code != server.CodeBadRequest {
		t.Fatalf("malformed line -> %+v", r.Error)
	}
}

// TestStdinSessionEndToEnd mirrors the README transcript: a workload
// compile and a short session over the stdio transport.
func TestStdinSessionEndToEnd(t *testing.T) {
	s := server.New(server.Options{})
	resps := runTranscript(t, s, []server.Request{
		{ID: 1, Cmd: "compile", Workload: "compress"},
	})
	if !resps[0].OK {
		t.Fatalf("compile workload = %+v", resps[0].Error)
	}
	stmt := 6
	resps = runTranscript(t, s, []server.Request{
		{ID: 2, Cmd: "open-session", Artifact: resps[0].Artifact},
	})
	sess, handle := resps[0].Session, resps[0].Handle
	resps = runTranscript(t, s, []server.Request{
		{ID: 3, Cmd: "break", Session: sess, Handle: handle, Func: "compress", Stmt: &stmt},
		{ID: 4, Cmd: "continue", Session: sess},
		{ID: 5, Cmd: "info", Session: sess},
		{ID: 6, Cmd: "close", Session: sess},
	})
	for i, r := range resps {
		if !r.OK {
			t.Fatalf("step %d failed: %+v", i, r.Error)
		}
	}
	if len(resps[2].Vars) == 0 {
		t.Fatal("info returned no variables")
	}
	_ = fmt.Sprintf("%v", resps)
}
