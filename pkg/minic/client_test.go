package minic_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/pkg/minic"
)

const clientProg = `
int main() {
	int x = 10;
	int y = x * 3;
	print(y);
	return y;
}
`

// startDaemon runs an in-process server on a loopback TCP listener, the
// way mcd -listen does, and returns its address.
func startDaemon(t *testing.T, opts server.Options) string {
	t.Helper()
	s := server.New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go s.ListenAndServe(l)
	t.Cleanup(s.Close)
	return l.Addr().String()
}

func TestClientEndToEnd(t *testing.T) {
	addr := startDaemon(t, server.Options{AuthToken: "sesame"})

	// Stats is open; everything else needs the token.
	bare, err := minic.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Stats(); err != nil {
		t.Fatalf("unauthenticated stats: %v", err)
	}
	_, err = bare.Compile("t.mc", clientProg)
	var re *minic.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeAuthRequired {
		t.Fatalf("unauthenticated compile = %v, want %s", err, server.CodeAuthRequired)
	}

	// Wrong token fails at Dial.
	if _, err := minic.Dial("tcp", addr, minic.WithAuthToken("wrong")); err == nil {
		t.Fatal("dial with wrong token succeeded")
	}

	c, err := minic.Dial("tcp", addr, minic.WithAuthToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	art, err := c.Compile("t.mc", clientProg)
	if err != nil {
		t.Fatal(err)
	}
	if art.ID == "" || art.Funcs != 1 {
		t.Fatalf("compile = %+v", art)
	}
	sess, err := c.Open(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" || sess.Handle == "" {
		t.Fatalf("open = %+v", sess)
	}
	if _, err := sess.BreakAtStmt("main", 1); err != nil {
		t.Fatal(err)
	}
	stop, _, err := sess.Continue()
	if err != nil || stop == nil || stop.Func != "main" {
		t.Fatalf("continue = %+v, %v", stop, err)
	}
	v, err := sess.Print("x")
	if err != nil || !strings.HasPrefix(v.Display, "x = 10") {
		t.Fatalf("print = %+v, %v", v, err)
	}
	vars, err := sess.Info()
	if err != nil || len(vars) < 2 {
		t.Fatalf("info = %d vars, %v", len(vars), err)
	}
	stop, output, err := sess.Continue()
	if err != nil || stop != nil || !strings.Contains(output, "30") {
		t.Fatalf("final continue = %+v %q %v", stop, output, err)
	}
	if out, err := sess.Close(); err != nil || !strings.Contains(out, "30") {
		t.Fatalf("close = %q, %v", out, err)
	}
}

// TestClientReconnect drops a client mid-session and resumes from a new
// connection with the persisted id/handle pair: the session must be
// parked at the identical stop.
func TestClientReconnect(t *testing.T) {
	addr := startDaemon(t, server.Options{})

	c1, err := minic.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	art, err := c1.Compile("t.mc", clientProg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c1.Open(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.BreakAtStmt("main", 1); err != nil {
		t.Fatal(err)
	}
	stop1, _, err := sess.Continue()
	if err != nil || stop1 == nil {
		t.Fatalf("continue = %+v, %v", stop1, err)
	}
	id, handle := sess.ID, sess.Handle
	c1.Close() // connection drops; the daemon detaches the session

	c2, err := minic.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resumed, stop2, err := c2.Attach(id, handle)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if stop2 == nil || *stop2 != *stop1 {
		t.Fatalf("attach stop = %+v, want %+v", stop2, stop1)
	}
	where, exited, err := resumed.Where()
	if err != nil || exited || where == nil || *where != *stop1 {
		t.Fatalf("where after reconnect = %+v exited=%v %v, want %+v", where, exited, err, stop1)
	}
	// The resumed session still executes.
	if v, err := resumed.Print("x"); err != nil || v.Name != "x" {
		t.Fatalf("print after reconnect = %+v, %v", v, err)
	}

	// Attach with a bogus handle is refused.
	if _, _, err := c2.Attach(id, "deadbeef"); err == nil {
		t.Fatal("attach with wrong handle succeeded")
	}
}

// TestClientDetachAttach detaches a session stopped at a breakpoint and
// resumes it from another connection: the detaching connection gives up
// ownership at once, a client without the handle is refused, and the
// attaching client finds the same stop and runs on to the output an
// undetached session prints.
func TestClientDetachAttach(t *testing.T) {
	addr := startDaemon(t, server.Options{})
	dial := func() *minic.Client {
		t.Helper()
		c, err := minic.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	notOwner := func(who string, err error) {
		t.Helper()
		var re *minic.RemoteError
		if !errors.As(err, &re) || re.Code != server.CodeNotOwner {
			t.Fatalf("%s = %v, want %s", who, err, server.CodeNotOwner)
		}
	}
	stopped := func(c *minic.Client) (*minic.RemoteSession, *minic.RemoteStop) {
		t.Helper()
		art, err := c.Compile("t.mc", clientProg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.Open(art.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.BreakAtStmt("main", 1); err != nil {
			t.Fatal(err)
		}
		stop, _, err := sess.Continue()
		if err != nil || stop == nil {
			t.Fatalf("continue = %+v, %v", stop, err)
		}
		return sess, stop
	}

	ref, refStop := stopped(dial())
	_, want, err := ref.Continue()
	if err != nil {
		t.Fatal(err)
	}

	a := dial()
	sess, stop := stopped(a)
	if *stop != *refStop {
		t.Fatalf("stop = %+v, want %+v", stop, refStop)
	}
	if err := sess.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
	_, _, err = a.Session(sess.ID, "").Where()
	notOwner("where without the handle on the detaching connection", err)
	a.Close()

	_, _, err = dial().Session(sess.ID, "").Where()
	notOwner("where from a client without the handle", err)

	resumed, got, err := dial().Attach(sess.ID, sess.Handle)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if got == nil || *got != *stop {
		t.Fatalf("attach stop = %+v, want %+v", got, stop)
	}
	end, output, err := resumed.Continue()
	if err != nil || end != nil || output != want {
		t.Fatalf("continue after attach = %+v %q %v, want exit with %q", end, output, err, want)
	}
}

// TestClientOwnershipDenied checks the server refuses another client's
// commands on a session when the handle is withheld.
func TestClientOwnershipDenied(t *testing.T) {
	addr := startDaemon(t, server.Options{})

	owner, err := minic.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	art, err := owner.Compile("t.mc", clientProg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := owner.Open(art.ID)
	if err != nil {
		t.Fatal(err)
	}

	intruder, err := minic.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	stolen := intruder.Session(sess.ID, "") // id leaked, handle withheld
	_, _, err = stolen.Step()
	var re *minic.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeNotOwner {
		t.Fatalf("intruder step = %v, want %s", err, server.CodeNotOwner)
	}
	if _, err := stolen.Close(); err == nil {
		t.Fatal("intruder closed another connection's session")
	}
	// The owner is unaffected.
	if _, err := sess.BreakAtStmt("main", 1); err != nil {
		t.Fatalf("owner break after intrusion: %v", err)
	}
	// With the persisted handle, a second connection of the same client
	// may take the session over.
	taken := intruder.Session(sess.ID, sess.Handle)
	if _, _, err := taken.Where(); err != nil {
		t.Fatalf("takeover with handle: %v", err)
	}
}
