package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// wireClient drives one real protocol connection (its own Serve call,
// hence its own connection state) over in-memory pipes.
type wireClient struct {
	t    *testing.T
	enc  *json.Encoder
	sc   *bufio.Scanner
	w    *io.PipeWriter
	done chan error
}

func dialServe(t *testing.T, s *Server) *wireClient {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- s.Serve(reqR, respW)
		respW.Close()
	}()
	sc := bufio.NewScanner(respR)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return &wireClient{t: t, enc: json.NewEncoder(reqW), sc: sc, w: reqW, done: done}
}

// do sends one request and reads its response.
func (c *wireClient) do(req *Request) *Response {
	c.t.Helper()
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatalf("encode: %v", err)
	}
	if !c.sc.Scan() {
		c.t.Fatalf("connection closed mid-request: %v", c.sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		c.t.Fatalf("bad response %q: %v", c.sc.Text(), err)
	}
	return &resp
}

func (c *wireClient) mustOK(req *Request) *Response {
	c.t.Helper()
	resp := c.do(req)
	if !resp.OK {
		c.t.Fatalf("%s failed: %+v", req.Cmd, resp.Error)
	}
	return resp
}

func (c *wireClient) mustFail(req *Request, code string) *Response {
	c.t.Helper()
	resp := c.do(req)
	if resp.OK || resp.Error == nil || resp.Error.Code != code {
		c.t.Fatalf("%s = %+v, want error code %s", req.Cmd, resp.Error, code)
	}
	return resp
}

// drop simulates the client's connection dying: Serve sees EOF, returns,
// and detaches the sessions this connection owned.
func (c *wireClient) drop() {
	c.t.Helper()
	c.w.Close()
	if err := <-c.done; err != nil {
		c.t.Fatalf("serve: %v", err)
	}
}

// TestSessionIDsUnguessable locks in the bug this PR exists for: session
// ids must no longer be the guessable s1, s2, ... sequence, and every
// session must carry a distinct secret handle.
func TestSessionIDsUnguessable(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	c := mustOK(t, s, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		o := mustOK(t, s, &Request{Cmd: "open-session", Artifact: c.Artifact})
		if o.Session == "s1" || o.Session == "s2" || o.Session == "s3" || o.Session == "s4" {
			t.Fatalf("sequential guessable session id %q", o.Session)
		}
		if len(o.Handle) != 2*handleBytes {
			t.Fatalf("handle %q, want %d hex chars", o.Handle, 2*handleBytes)
		}
		if seen[o.Session] || seen[o.Handle] {
			t.Fatalf("duplicate id/handle: %+v", o)
		}
		seen[o.Session], seen[o.Handle] = true, true
	}
}

// TestCrossConnectionOwnershipDenied is the ownership regression test:
// connection B, knowing only the session id, can neither drive nor close
// connection A's session; with the handle it can.
func TestCrossConnectionOwnershipDenied(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	a := dialServe(t, s)
	b := dialServe(t, s)

	art := a.mustOK(&Request{ID: 1, Cmd: "compile", Name: "t.mc", Src: testProg})
	o := a.mustOK(&Request{ID: 2, Cmd: "open-session", Artifact: art.Artifact})
	stmt := 1
	a.mustOK(&Request{ID: 3, Cmd: "break", Session: o.Session, Func: "main", Stmt: &stmt})

	// B has the id (it leaked via logs, say) but not the handle.
	for _, cmd := range []string{"step", "continue", "where", "close", "detach"} {
		b.mustFail(&Request{ID: 4, Cmd: cmd, Session: o.Session}, CodeNotOwner)
	}
	b.mustFail(&Request{ID: 5, Cmd: "attach", Session: o.Session, Handle: "0badc0de"}, CodeNotOwner)
	b.mustFail(&Request{ID: 6, Cmd: "step", Session: o.Session, Handle: "0badc0de"}, CodeNotOwner)

	// A is unaffected and still owns the session.
	cont := a.mustOK(&Request{ID: 7, Cmd: "continue", Session: o.Session})
	if cont.Stop == nil {
		t.Fatalf("continue = %+v", cont)
	}

	// The handle is the capability: with it, B may take the session over.
	at := b.mustOK(&Request{ID: 8, Cmd: "attach", Session: o.Session, Handle: o.Handle})
	if at.Stop == nil || *at.Stop != *cont.Stop {
		t.Fatalf("attach stop = %+v, want %+v", at.Stop, cont.Stop)
	}
	// ...after which A is the outsider.
	a.mustFail(&Request{ID: 9, Cmd: "step", Session: o.Session}, CodeNotOwner)

	a.drop()
	b.drop()
}

// TestDetachAttachReconnect drives the reconnect flow: a dropped
// connection leaves its session alive but detached, a new connection
// presenting the handle resumes it, and where answers with the identical
// stop (byte-identical JSON) across the reconnect.
func TestDetachAttachReconnect(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	a := dialServe(t, s)

	art := a.mustOK(&Request{ID: 1, Cmd: "compile", Name: "t.mc", Src: testProg})
	o := a.mustOK(&Request{ID: 2, Cmd: "open-session", Artifact: art.Artifact})
	stmt := 1
	a.mustOK(&Request{ID: 3, Cmd: "break", Session: o.Session, Func: "main", Stmt: &stmt})
	a.mustOK(&Request{ID: 4, Cmd: "continue", Session: o.Session})
	whereCold := a.mustOK(&Request{ID: 5, Cmd: "where", Session: o.Session})

	a.drop()
	st := s.Snapshot()
	if st.SessionsActive != 1 || st.SessionsDetached != 1 {
		t.Fatalf("after drop: %d active, %d detached", st.SessionsActive, st.SessionsDetached)
	}

	b := dialServe(t, s)
	defer b.drop()
	// Without the handle the detached session is still off limits.
	b.mustFail(&Request{ID: 5, Cmd: "where", Session: o.Session}, CodeNotOwner)
	at := b.mustOK(&Request{ID: 6, Cmd: "attach", Session: o.Session, Handle: o.Handle})
	if at.Session != o.Session || at.Stop == nil {
		t.Fatalf("attach = %+v", at)
	}
	whereWarm := b.mustOK(&Request{ID: 5, Cmd: "where", Session: o.Session})

	cold, err := json.Marshal(whereCold)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := json.Marshal(whereWarm)
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Fatalf("where across reconnect differs:\nbefore: %s\nafter:  %s", cold, warm)
	}
	// The resumed session keeps working: print sees the stopped frame.
	if p := b.mustOK(&Request{ID: 7, Cmd: "print", Session: o.Session, Var: "x"}); len(p.Vars) != 1 {
		t.Fatalf("print after reconnect = %+v", p)
	}
}

// TestExplicitDetach lets one client move a session between its own
// connections without dropping any.
func TestExplicitDetach(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	a := dialServe(t, s)
	defer a.drop()
	b := dialServe(t, s)
	defer b.drop()

	art := a.mustOK(&Request{ID: 1, Cmd: "compile", Name: "t.mc", Src: testProg})
	o := a.mustOK(&Request{ID: 2, Cmd: "open-session", Artifact: art.Artifact})
	a.mustOK(&Request{ID: 3, Cmd: "detach", Session: o.Session})
	if st := s.Snapshot(); st.SessionsDetached != 1 {
		t.Fatalf("sessions_detached = %d after detach", st.SessionsDetached)
	}
	// Post-detach the original connection is an outsider too.
	a.mustFail(&Request{ID: 4, Cmd: "where", Session: o.Session}, CodeNotOwner)
	b.mustOK(&Request{ID: 5, Cmd: "attach", Session: o.Session, Handle: o.Handle})
	b.mustOK(&Request{ID: 6, Cmd: "where", Session: o.Session})
}

// TestOwnedMapDropsDeadSessions is the retention regression test: a
// connection's owned map must not keep sessions that another connection
// closed with the handle, or that the reaper collected, reachable for as
// long as the connection lives.
func TestOwnedMapDropsDeadSessions(t *testing.T) {
	s := New(Options{SessionTTL: time.Hour})
	defer s.Close()
	a, b := s.newConn(), s.newConn()

	c := s.handleAs(a, &Request{Cmd: "compile", Name: "t.mc", Src: testProg})
	if !c.OK {
		t.Fatalf("compile: %+v", c.Error)
	}
	var opened [2]*Response
	for i := range opened {
		if opened[i] = s.handleAs(a, &Request{Cmd: "open-session", Artifact: c.Artifact}); !opened[i].OK {
			t.Fatalf("open-session: %+v", opened[i].Error)
		}
	}

	// B closes the first session with its handle.
	closed := opened[0]
	if r := s.handleAs(b, &Request{Cmd: "close", Session: closed.Session, Handle: closed.Handle}); !r.OK {
		t.Fatalf("close by handle: %+v", r.Error)
	}
	// The reaper collects the second.
	s.mu.Lock()
	s.sessions[opened[1].Session].lastActive.Store(0)
	s.mu.Unlock()
	if n := s.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.sessions); n != 0 {
		t.Fatalf("%d sessions still in the table", n)
	}
	if n := len(a.owned); n != 0 {
		t.Errorf("connection A still owns %d dead sessions", n)
	}
	if n := len(b.owned); n != 0 {
		t.Errorf("connection B still owns %d dead sessions", n)
	}
}

// TestAuthGate covers the shared-secret layer: unauthenticated
// connections get only auth and stats, wrong tokens are counted, and
// both the auth command and per-request tokens unlock a connection.
func TestAuthGate(t *testing.T) {
	s := New(Options{AuthToken: "hunter2"})
	defer s.Close()

	c := dialServe(t, s)
	c.mustOK(&Request{ID: 1, Cmd: "stats"})
	c.mustFail(&Request{ID: 2, Cmd: "compile", Name: "t.mc", Src: testProg}, CodeAuthRequired)
	c.mustFail(&Request{ID: 3, Cmd: "auth", Token: "wrong"}, CodeAuthFailed)
	c.mustFail(&Request{ID: 4, Cmd: "compile", Name: "t.mc", Src: testProg, Token: "wrong"}, CodeAuthFailed)
	c.mustOK(&Request{ID: 5, Cmd: "auth", Token: "hunter2"})
	c.mustOK(&Request{ID: 6, Cmd: "compile", Name: "t.mc", Src: testProg})
	c.drop()

	// Per-request token authenticates without a prior auth command.
	p := dialServe(t, s)
	p.mustOK(&Request{ID: 1, Cmd: "compile", Name: "t.mc", Src: testProg, Token: "hunter2"})
	p.mustOK(&Request{ID: 2, Cmd: "compile", Name: "t.mc", Src: testProg}) // conn now authed
	p.drop()

	if st := s.Snapshot(); st.AuthFailures != 2 {
		t.Fatalf("auth_failures = %d, want 2", st.AuthFailures)
	}

	// The in-process Handle surface is trusted and bypasses the gate.
	if r := s.Handle(&Request{Cmd: "compile", Name: "t.mc", Src: testProg}); !r.OK {
		t.Fatalf("trusted Handle gated: %+v", r.Error)
	}

	// A server without a token accepts auth as a no-op, so clients can
	// always send it.
	open := New(Options{})
	defer open.Close()
	oc := dialServe(t, open)
	oc.mustOK(&Request{ID: 1, Cmd: "auth"})
	oc.mustOK(&Request{ID: 2, Cmd: "compile", Name: "t.mc", Src: testProg})
	oc.drop()
}

// reapLongProg runs long enough that a continue spans many short TTLs
// (~175ms plain, seconds under -race).
const reapLongProg = `
int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 1000000; i++) { acc += i; }
	return acc;
}
`

// reapTTL is short against the reapLongProg continue (so the reaper is
// genuinely tempted mid-command) but long against scheduler noise (so
// the freshly re-touched session is not legitimately idle by the time
// the test's last reap sweep computes its cutoff).
const reapTTL = 50 * time.Millisecond

// TestReapDuringContinue is the reaper TOCTOU regression test: a session
// whose continue is still executing is pinned, so hammering the reaper
// with an expired TTL must not lose it mid-command, and the cycle
// accounting must match a reap-free reference run exactly.
func TestReapDuringContinue(t *testing.T) {
	reference := New(Options{})
	_, refSess := compileAndOpen(t, reference, "loop.mc", reapLongProg)
	if r := reference.Handle(&Request{Cmd: "continue", Session: refSess}); !r.OK || !r.Exited {
		t.Fatalf("reference continue = %+v", r)
	}
	want := reference.Snapshot().CyclesExecuted
	if want <= 0 {
		t.Fatalf("reference cycles = %d", want)
	}

	s := New(Options{SessionTTL: reapTTL, ReapInterval: time.Hour})
	defer s.Close()
	_, sess := compileAndOpen(t, s, "loop.mc", reapLongProg)

	// Wait for the continue to be in flight (the pin is what we test).
	done := make(chan *Response, 1)
	go func() { done <- s.Handle(&Request{Cmd: "continue", Session: sess}) }()
	for {
		s.mu.Lock()
		inflight := s.sessions[sess] != nil && s.sessions[sess].inflight > 0
		s.mu.Unlock()
		if inflight {
			break
		}
		select {
		case r := <-done:
			t.Fatalf("continue finished before it was observed in flight: %+v", r)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Sweep the reaper for the rest of the run: lastActive goes stale
	// past the TTL while the command executes, so only the in-flight pin
	// protects the session.
	var resp *Response
	for resp == nil {
		select {
		case resp = <-done:
		default:
			s.ReapIdleSessions()
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !resp.OK || !resp.Exited {
		t.Fatalf("continue under reap pressure = %+v", resp)
	}
	// The session survived to answer.
	if r := s.Handle(&Request{Cmd: "where", Session: sess}); !r.OK {
		t.Fatalf("session lost mid-continue: %+v", r.Error)
	}
	if n := s.Snapshot().SessionsReaped; n != 0 {
		t.Fatalf("sessions_reaped = %d, pinned session was reaped", n)
	}
	if got := s.Snapshot().CyclesExecuted; got != want {
		t.Fatalf("cycles_executed = %d, reference = %d", got, want)
	}
}

// TestReapedSessionCyclesAccounted reaps a half-run session and checks
// cycles_executed still equals the single-connection reference.
func TestReapedSessionCyclesAccounted(t *testing.T) {
	drive := func(s *Server) string {
		t.Helper()
		_, sess := compileAndOpen(t, s, "t.mc", testProg)
		stmt := 1
		mustOK(t, s, &Request{Cmd: "break", Session: sess, Func: "main", Stmt: &stmt})
		mustOK(t, s, &Request{Cmd: "continue", Session: sess})
		return sess
	}

	reference := New(Options{})
	drive(reference)
	want := reference.Snapshot().CyclesExecuted

	s := New(Options{SessionTTL: time.Millisecond, ReapInterval: time.Hour})
	defer s.Close()
	drive(s)
	deadline := time.Now().Add(5 * time.Second)
	for s.ReapIdleSessions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never became reapable")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Snapshot().CyclesExecuted; got != want {
		t.Fatalf("cycles_executed after reap = %d, reference = %d", got, want)
	}
	// Closing a session likewise settles its cycles.
	sClose := New(Options{})
	defer sClose.Close()
	sess := drive(sClose)
	mustOK(t, sClose, &Request{Cmd: "close", Session: sess})
	if got := sClose.Snapshot().CyclesExecuted; got != want {
		t.Fatalf("cycles_executed after close = %d, reference = %d", got, want)
	}
}

// TestOversizedLineAnswersThenCloses feeds a line over MaxLine: earlier
// requests on the connection are answered, the oversized line gets a
// bad-request response, and Serve returns nil (a clean per-connection
// close — on the stdio transport this must not kill the daemon).
func TestOversizedLineAnswersThenCloses(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	input := `{"id":1,"cmd":"stats"}` + "\n" + strings.Repeat("x", MaxLine+1) + "\n"
	var out strings.Builder
	if err := s.Serve(strings.NewReader(input), &out); err != nil {
		t.Fatalf("Serve = %v, oversized line must close cleanly", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d response lines: %q", len(lines), out.String())
	}
	var first, second Response
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || !first.OK || first.Stats == nil {
		t.Fatalf("first response = %q (err %v)", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("second response = %q: %v", lines[1], err)
	}
	if second.OK || second.Error == nil || second.Error.Code != CodeBadRequest ||
		!strings.Contains(second.Error.Message, "exceeds") {
		t.Fatalf("oversized line answered %+v, want %s", second.Error, CodeBadRequest)
	}
	// The server is unaffected.
	if r := s.Handle(&Request{Cmd: "stats"}); !r.OK {
		t.Fatal("server dead after oversized line")
	}
}

// TestOversizedLineDoesNotAffectOtherConnections runs the same scenario
// over a real listener with a second healthy connection.
func TestOversizedLineDoesNotAffectOtherConnections(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go s.ListenAndServe(l)

	good, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	// The oversized writer may block (the server stops reading once the
	// line is over budget) and errors out when the server closes the
	// connection; both are fine.
	go func() {
		chunk := strings.Repeat("y", 1<<20)
		for i := 0; i <= MaxLine/len(chunk)+1; i++ {
			if _, err := bad.Write([]byte(chunk)); err != nil {
				return
			}
		}
	}()
	// The bad connection ends (possibly after delivering the error
	// response).
	bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	io.Copy(io.Discard, bad)

	// The good connection still answers.
	gc := json.NewEncoder(good)
	if err := gc.Encode(&Request{ID: 1, Cmd: "stats"}); err != nil {
		t.Fatal(err)
	}
	good.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(good)
	if !sc.Scan() {
		t.Fatalf("healthy connection got no answer: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil || !resp.OK {
		t.Fatalf("healthy connection response %q (err %v)", sc.Text(), err)
	}
}

// TestCloseDrainsInflightCompile is the shutdown-race regression test:
// Close during an in-flight compile must wait for it (the spill-tier
// flush cannot race the store write), and late requests are refused with
// shutting-down instead of hitting a half-closed server. Run under -race
// this is the regression test for Close racing live connections.
func TestCloseDrainsInflightCompile(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{SpillDir: dir})

	done := make(chan *Response, 1)
	go func() { done <- s.Handle(&Request{Cmd: "compile", Workload: "gcc"}) }()
	// Wait until the compile is admitted (in flight), then close.
	for {
		s.stateMu.Lock()
		n := s.inflight
		s.stateMu.Unlock()
		if n > 0 {
			break
		}
		select {
		case r := <-done:
			t.Fatalf("compile finished before close raced it: ok=%v", r.OK)
		default:
		}
	}
	s.Close()
	r := <-done
	if !r.OK {
		t.Fatalf("in-flight compile dropped by Close: %+v", r.Error)
	}
	// Close drained the compile before flushing, so the flushed warm set
	// includes it: a restarted server serves it from disk.
	if s2 := New(Options{SpillDir: dir}); true {
		defer s2.Close()
		warm := s2.Handle(&Request{Cmd: "compile", Workload: "gcc"})
		if !warm.OK || !warm.Cached || warm.Artifact != r.Artifact {
			t.Fatalf("restart after drained close = %+v, want warm hit on %s", warm, r.Artifact)
		}
	}
	// Requests after Close are refused, not half-served.
	if late := s.Handle(&Request{Cmd: "stats"}); late.OK || late.Error.Code != CodeShuttingDown {
		t.Fatalf("post-close request = %+v, want %s", late.Error, CodeShuttingDown)
	}
}

// TestCloseStopsListenersAndConnections: Close closes tracked listeners
// (ListenAndServe returns nil) and force-closes idle connections.
func TestCloseStopsListenersAndConnections(t *testing.T) {
	s := New(Options{DrainTimeout: 2 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	if err := enc.Encode(&Request{ID: 1, Cmd: "stats"}); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no stats answer: %v", sc.Err())
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after Close")
	}
	// The tracked connection was force-closed.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if sc.Scan() {
		t.Fatalf("connection still delivering after Close: %q", sc.Text())
	}
	// New dials are refused.
	if c2, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c2.Close()
		t.Fatal("listener still accepting after Close")
	}
}
