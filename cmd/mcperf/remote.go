package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/server"
)

// Request classes, by what the user waits for.
const (
	clsCompile = iota
	clsOpen
	clsBreak
	clsStop    // continue, step
	clsInspect // info, print
	clsCoverage
	clsClose
	numClasses
)

var classNames = [numClasses]string{"compile", "open", "break", "stop", "inspect", "coverage", "close"}

// transport sends one request line and returns the response line with the
// time it took.
type transport interface {
	roundTrip(line []byte) ([]byte, time.Duration, error)
}

// tcpTransport is one closed-loop protocol connection: it writes a line
// and reads the answer before the next request, as every protocol client
// of the daemon does. The time is from the write to the last byte of the
// answer; the client's own JSON decode is not in it.
type tcpTransport struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
}

func dialTCP(addr string) (*tcpTransport, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpTransport{c: c, r: bufio.NewReaderSize(c, 1<<20)}, nil
}

func (t *tcpTransport) roundTrip(line []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	if _, err := t.c.Write(line); err != nil {
		return nil, 0, err
	}
	t.buf = t.buf[:0]
	for {
		chunk, err := t.r.ReadSlice('\n')
		t.buf = append(t.buf, chunk...)
		if err == nil {
			break
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, 0, err
		}
	}
	return t.buf, time.Since(t0), nil
}

func (t *tcpTransport) Close() error { return t.c.Close() }

// observer sees every request the remote backend completes; the replay
// hangs its accounting and the library-level shadow on it.
type observer interface {
	after(class int, line []byte, resp *server.Response, d time.Duration)
}

// errTransport marks a failed connection: the unit and the connection
// both end.
var errTransport = errors.New("transport")

// protoError is an error response from the daemon.
type protoError struct{ Code, Message string }

func (e *protoError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// remote is the protocol backend: it renders each command as one request
// line, records its latency by class, and decodes the answer.
type remote struct {
	rt     transport
	nextID int64
	lat    *latencies    // nil: do not record
	pool   *connPool     // the measured phase's epochs; nil outside it
	epoch  int           // the latest request's epoch
	spent  []sample      // the current unit's request time, summed per epoch
	obs    observer      // nil: no shadow
	last   time.Duration // the latest round trip

	attempted int64
	failed    int64
}

func (r *remote) do(class int, req *server.Request) (*server.Response, error) {
	r.nextID++
	req.ID = r.nextID
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	line = append(line, '\n')
	if r.pool != nil {
		r.epoch = r.pool.enter()
	}
	r.attempted++
	raw, d, err := r.rt.roundTrip(line)
	if err != nil {
		r.failed++
		return nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	var resp server.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		r.failed++
		return nil, fmt.Errorf("bad response line: %w", err)
	}
	if resp.ID != req.ID {
		r.failed++
		return nil, fmt.Errorf("response id %d for request %d", resp.ID, req.ID)
	}
	r.last = d
	if r.lat != nil {
		r.lat.add(class, d, r.epoch)
		if n := len(r.spent); n > 0 && r.spent[n-1].epoch == r.epoch {
			r.spent[n-1].d += d
		} else {
			r.spent = append(r.spent, sample{d, r.epoch})
		}
	}
	if r.obs != nil {
		r.obs.after(class, line, &resp, d)
	}
	if !resp.OK {
		r.failed++
		if resp.Error == nil {
			return nil, &protoError{Code: "?", Message: "error response with no detail"}
		}
		return nil, &protoError{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	return &resp, nil
}

func (r *remote) compile(a artSpec) (compiled, error) {
	req := &server.Request{Cmd: "compile", Config: a.spec()}
	if a.Workload != "" {
		req.Workload = a.Workload
	} else {
		req.Name, req.Src = a.Name, a.Src
	}
	resp, err := r.do(clsCompile, req)
	if err != nil {
		return compiled{}, err
	}
	return compiled{ID: resp.Artifact, Funcs: resp.Funcs, FuncsCompiled: resp.FuncsCompiled, Latency: sample{r.last, r.epoch}}, nil
}

func (r *remote) coverage(id string) (*server.CoverageInfo, error) {
	resp, err := r.do(clsCoverage, &server.Request{Cmd: "coverage", Artifact: id})
	if err != nil {
		return nil, err
	}
	return resp.Coverage, nil
}

func (r *remote) open(id string) (string, error) {
	resp, err := r.do(clsOpen, &server.Request{Cmd: "open-session", Artifact: id})
	if err != nil {
		return "", err
	}
	return resp.Session, nil
}

func (r *remote) brk(sess string, b brk) (*server.StopInfo, error) {
	stmt := b.Stmt
	resp, err := r.do(clsBreak, &server.Request{Cmd: "break", Session: sess, Func: b.Fn, Stmt: &stmt})
	if err != nil {
		return nil, err
	}
	return resp.Stop, nil
}

func (r *remote) run(sess string, step bool) (*server.StopInfo, string, error) {
	cmd := "continue"
	if step {
		cmd = "step"
	}
	resp, err := r.do(clsStop, &server.Request{Cmd: cmd, Session: sess})
	if err != nil {
		return nil, "", err
	}
	return resp.Stop, resp.Output, nil
}

func (r *remote) info(sess string) ([]server.VarInfo, error) {
	resp, err := r.do(clsInspect, &server.Request{Cmd: "info", Session: sess})
	if err != nil {
		return nil, err
	}
	return resp.Vars, nil
}

func (r *remote) print(sess, name string) (server.VarInfo, error) {
	resp, err := r.do(clsInspect, &server.Request{Cmd: "print", Session: sess, Var: name})
	if err != nil {
		return server.VarInfo{}, err
	}
	if len(resp.Vars) != 1 {
		return server.VarInfo{}, fmt.Errorf("print answered %d vars", len(resp.Vars))
	}
	return resp.Vars[0], nil
}

func (r *remote) close(sess string) (string, error) {
	resp, err := r.do(clsClose, &server.Request{Cmd: "close", Session: sess})
	if err != nil {
		return "", err
	}
	return resp.Output, nil
}

func (r *remote) stats() (*server.Stats, error) {
	resp, err := r.do(-1, &server.Request{Cmd: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// sample is one request's time and the epoch it ran in.
type sample struct {
	d     time.Duration
	epoch int
}

// latencies collects per-class request times of one connection.
type latencies struct {
	d [numClasses][]sample
}

func (l *latencies) add(class int, d time.Duration, epoch int) {
	if class >= 0 {
		l.d[class] = append(l.d[class], sample{d, epoch})
	}
}

// connPool hands the script's units out to closed-loop connections and
// cuts the measured phase into epochs. Units go out in whole rounds: a
// round starts only if, at the pace of the rounds so far, at least half of
// it falls within the budget, so the phase lasts about the budget whatever
// the machine's speed and every run sees the same mix of artifacts. Once
// an epoch's time is up, a connection about to send a request waits until
// every other connection is waiting too (or done); the last to arrive
// calibrates the machine with no request in flight and no client work
// running, and then the next epoch starts.
type connPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	next   int // next unit index
	limit  int // units in the script
	round  int
	budget time.Duration // 0: run the whole script
	t0     time.Time

	active  int // connections still sending
	waiting int // connections waiting for the epoch to end
	epoch   int
	start   time.Time // the current epoch's
	err     error     // a failed calibration; no unit starts after it
	ep      *epochs
	mark    func() error // ep.boundary, or a test's stand-in
}

// newConnPool marks the first boundary and starts the first epoch.
func newConnPool(limit, round, conns int, budget time.Duration, ep *epochs, mark func() error) (*connPool, error) {
	p := &connPool{limit: limit, round: round, budget: budget, active: conns, ep: ep, mark: mark}
	p.cond = sync.NewCond(&p.mu)
	if err := mark(); err != nil {
		return nil, err
	}
	p.t0 = time.Now()
	p.start = p.t0
	return p, nil
}

// take returns the next unit index, or false when the script is done.
func (p *connPool) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.budget > 0 && p.next > 0 && p.next < p.limit && p.next%p.round == 0 {
		el := time.Since(p.t0)
		if el+el/time.Duration(2*p.next/p.round) > p.budget {
			p.limit = p.next
		}
	}
	if p.next >= p.limit || p.err != nil {
		return 0, false
	}
	p.next++
	return p.next - 1, true
}

// enter is called before each request and returns the epoch it runs in.
func (p *connPool) enter() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.start) >= epochLen {
		e := p.epoch
		p.waiting++
		if p.waiting == p.active {
			p.endEpoch()
		}
		for p.epoch == e {
			p.cond.Wait()
		}
	}
	return p.epoch
}

// leave drops a connection that sends no more requests: its script is
// done or its transport failed. The last to leave closes the last epoch.
func (p *connPool) leave() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if p.active == 0 || p.waiting == p.active {
		p.endEpoch()
	}
}

// endEpoch runs with every active connection waiting in enter.
func (p *connPool) endEpoch() {
	p.ep.wall = append(p.ep.wall, time.Since(p.start))
	if err := p.mark(); err != nil && p.err == nil {
		p.err = err
	}
	p.waiting = 0
	p.epoch++
	p.start = time.Now()
	p.cond.Broadcast()
}
