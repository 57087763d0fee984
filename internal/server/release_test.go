package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/vm"
)

// sessionOf returns the table entry for id.
func sessionOf(s *Server, id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// waitPinned waits until sess has n requests in flight.
func waitPinned(t *testing.T, s *Server, sess *session, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := sess.inflight
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", got, n)
		}
	}
}

// TestPinnedRequestAcrossCloseAnswersNoSuchSession: a request that pinned
// its session before a close, and waited for the session while the close
// ran, answers no-such-session. It never runs on the VM whose memory the
// close released, whatever the command.
func TestPinnedRequestAcrossCloseAnswersNoSuchSession(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, req := range []Request{
		{Cmd: "continue"}, {Cmd: "step"}, {Cmd: "print", Var: "x"}, {Cmd: "info"},
		{Cmd: "where"}, {Cmd: "break", Func: "main", Stmt: intp(1)}, {Cmd: "close"}, {Cmd: "attach"},
	} {
		_, id := compileAndOpen(t, s, "t.mc", testProg)
		mustOK(t, s, &Request{Cmd: "break", Session: id, Func: "main", Stmt: intp(1)})
		mustOK(t, s, &Request{Cmd: "continue", Session: id})
		sess := sessionOf(s, id)
		req.Session, req.Handle = id, sess.handle

		// Hold the session as a running command would, let the request
		// pin it behind us, then close it as the close command does.
		sess.mu.Lock()
		done := make(chan *Response, 1)
		go func() { done <- s.Handle(&req) }()
		waitPinned(t, s, sess, 1)
		s.closeSession(sess)
		sess.mu.Unlock()

		if r := <-done; r.OK || r.Error.Code != CodeNoSuchSession {
			t.Errorf("%s pinned across a close: %+v, want %s", req.Cmd, r, CodeNoSuchSession)
		}
		if _, err := sess.dbg.VM.ReadMemInt(0); !errors.Is(err, vm.ErrReleased) {
			t.Errorf("%s: the closed session's VM reads memory: %v", req.Cmd, err)
		}
	}
}

// TestCloseAndReapReleaseVMMemory: the close command and the idle reaper
// both release the session's VM after taking it out of the table, and
// cycles_executed still counts every cycle the sessions ran.
func TestCloseAndReapReleaseVMMemory(t *testing.T) {
	s := New(Options{SessionTTL: time.Nanosecond, ReapInterval: time.Hour})
	defer s.Close()
	_, closed := compileAndOpen(t, s, "t.mc", testProg)
	_, reaped := compileAndOpen(t, s, "t.mc", testProg)
	var vms []*vm.VM
	for _, id := range []string{closed, reaped} {
		vms = append(vms, sessionOf(s, id).dbg.VM)
		mustOK(t, s, &Request{Cmd: "continue", Session: id})
	}
	want := vms[0].Cycles + vms[1].Cycles
	if r := mustOK(t, s, &Request{Cmd: "close", Session: closed}); r.Output != "30" {
		t.Errorf("close output %q, want %q", r.Output, "30")
	}
	time.Sleep(time.Millisecond)
	if n := s.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	for i, v := range vms {
		if _, err := v.ReadMemInt(0); !errors.Is(err, vm.ErrReleased) {
			t.Errorf("session %d: VM not released after it left the table: %v", i, err)
		}
	}
	if got := s.Snapshot().CyclesExecuted; got != want {
		t.Errorf("cycles_executed %d, want %d", got, want)
	}
}
