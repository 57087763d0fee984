package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/server"
)

// replayResult is one lane's in-process replay of the script's first
// units.
type replayResult struct {
	units     int
	results   []unitResult // for the correctness check
	failures  []string
	attempted int64
	failed    int64
	deltas    map[string]int64          // the server's stats over the replay
	serve     [numClasses]time.Duration // server.serve time by request class
	tcp       [numClasses]time.Duration // the client's round trips of the same requests
	count     [numClasses]int64
	lines     [][]byte // request lines, kept by the traced replay

	mallocs, allocBytes uint64  // heap allocations during the replay
	gcFrac              float64 // GC's share of the process's CPU time
	rec                 *recorder
	sh                  *shadow
}

func (r *replayResult) requests() int64 {
	var n int64
	for _, c := range r.count {
		n += c
	}
	return n
}

func (r *replayResult) serveTotal() time.Duration {
	var d time.Duration
	for _, s := range r.serve {
		d += s
	}
	return d
}

// served is the server's time for one request: from the read that brought
// its line to the write that completed its answer.
type served struct {
	start time.Time
	d     time.Duration
}

// timedConn is the server's end of a replay connection. It times each
// request on Serve's goroutine and hands the time to the client's side.
// The replay is a closed loop, so the first read after an answer brings
// the next request.
type timedConn struct {
	net.Conn
	fresh bool
	start time.Time
	done  chan served // one request in flight at a time
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.fresh {
		c.start, c.fresh = time.Now(), false
	}
	return n, err
}

// Write passes an answer on; only an answer's last byte is a newline.
func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n == len(p) && n > 0 && p[n-1] == '\n' {
		c.done <- served{c.start, time.Since(c.start)}
		c.fresh = true
	}
	return n, err
}

// timedListener wraps each connection the server accepts in a timedConn
// and hands that over to the lane that dialed it.
type timedListener struct {
	net.Listener
	conns chan *timedConn // a lane dials once
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c, fresh: true, done: make(chan served, 1)}
	l.conns <- tc
	return tc, nil
}

// laneTransport is a replay lane's loopback connection: the client's round
// trip and, for the same request, the server's time.
type laneTransport struct {
	*tcpTransport
	srv  *timedConn
	last served
}

func (t *laneTransport) roundTrip(line []byte) ([]byte, time.Duration, error) {
	raw, d, err := t.tcpTransport.roundTrip(line)
	if err == nil {
		t.last = <-t.srv.done // written before the client could read it all
	}
	return raw, d, err
}

// replayObs accounts each replayed request and hands it to the shadow.
type replayObs struct {
	on  bool
	tr  *laneTransport
	out *replayResult
}

func (o *replayObs) after(class int, line []byte, resp *server.Response, d time.Duration) {
	sv := o.tr.last
	if o.out.sh != nil {
		o.out.sh.apply(line, resp, sv.start, sv.d)
	}
	if !o.on || class < 0 {
		return
	}
	o.out.serve[class] += sv.d
	o.out.tcp[class] += d
	o.out.count[class]++
	if o.out.sh != nil {
		o.out.lines = append(o.out.lines, line)
	}
}

// lane is one in-process server.Server on loopback TCP with one client
// connection, and the shadow stack beside it when traced.
type lane struct {
	d   *inProcDaemon
	tr  *laneTransport
	r   *remote
	obs *replayObs
	out *replayResult
}

func newLane(w *workload, traced bool, spill string) (*lane, error) {
	opts, err := serverOptions(w.daemonArgs(filepath.Join(spill, "server")))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tl := timedListener{ln, make(chan *timedConn, 1)}
	d := serveInProc(server.New(opts), tl)
	tcp, err := dialTCP(d.addr())
	if err != nil {
		d.stop() //nolint:errcheck // already failing
		return nil, err
	}
	l := &lane{d: d, tr: &laneTransport{tcpTransport: tcp, srv: <-tl.conns}, out: &replayResult{}}
	l.obs = &replayObs{tr: l.tr, out: l.out}
	if traced {
		l.out.rec = newRecorder(w.name)
		l.out.sh = newShadow(l.out.rec, opts, filepath.Join(spill, "shadow"))
	}
	l.r = &remote{rt: l.tr, obs: l.obs}
	if err := warmUp(w, l.r); err != nil {
		l.close()
		return nil, fmt.Errorf("replay warm-up: %w", err)
	}
	return l, nil
}

func (l *lane) close() {
	l.tr.Close()
	if l.out.sh != nil {
		l.out.sh.close()
	}
	l.d.stop() //nolint:errcheck // the replay's server has nothing left to report
}

func (l *lane) record(on bool) {
	l.obs.on = on
	if l.out.rec != nil {
		if on {
			l.out.rec.t0 = time.Now()
		}
		l.out.rec.on = on
	}
}

// replay runs units on one in-process server per lane (traced[i] puts the
// shadow stack beside lane i's server), after the warm-up the daemon gets.
// Lanes run in lockstep: every lane runs a unit before any runs the next,
// and the lane that goes first alternates, so two lanes see the same
// machine. It replays limit units or, when limit is 0, as many as fit in
// budget but at least one round of artifacts. Heap and GC numbers are
// process-wide: they describe a lane only when it runs alone.
func replay(w *workload, units []*unit, traced []bool, limit int, budget time.Duration, dir string) ([]*replayResult, error) {
	spill := filepath.Join(dir, "replay-spill")
	if err := os.RemoveAll(spill); err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	lanes := make([]*lane, len(traced))
	defer func() {
		for _, l := range lanes {
			if l != nil {
				l.close()
			}
		}
	}()
	for i, t := range traced {
		l, err := newLane(w, t, filepath.Join(spill, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		lanes[i] = l
	}

	// Requests and stats count from here: the warm-up is not replayed.
	st0 := make([]*server.Stats, len(lanes))
	attempted0 := make([]int64, len(lanes))
	failed0 := make([]int64, len(lanes))
	for i, l := range lanes {
		st, err := l.r.stats()
		if err != nil {
			return nil, err
		}
		st0[i], attempted0[i], failed0[i] = st, l.r.attempted, l.r.failed
	}
	// Start from a collected heap, so the replay inherits no garbage.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := gcCPU()
	for _, l := range lanes {
		l.record(true)
	}
	start := time.Now()
	n := 0
	for _, u := range units {
		if (limit > 0 && n >= limit) || (limit == 0 && n >= w.round && time.Since(start) >= budget) {
			break
		}
		for k := range lanes {
			l := lanes[(k+n)%len(lanes)]
			res, err := runUnit(w, l.r, u)
			if errors.Is(err, errTransport) {
				return nil, fmt.Errorf("replaying unit %d: %w", u.Index, err)
			}
			if err != nil {
				l.out.failures = append(l.out.failures, fmt.Sprintf("replayed unit %d: %v", u.Index, err))
			} else {
				l.out.results = append(l.out.results, res)
			}
		}
		n++
	}
	for _, l := range lanes {
		l.record(false)
	}
	gc1, all1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	out := make([]*replayResult, len(lanes))
	for i, l := range lanes {
		l.out.attempted = l.r.attempted - attempted0[i]
		l.out.failed = l.r.failed - failed0[i]
		st1, err := l.r.stats()
		if err != nil {
			return nil, err
		}
		l.out.deltas = statsDeltas(st0[i], st1)
		l.out.units = n
		l.out.mallocs = ms1.Mallocs - ms0.Mallocs
		l.out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		l.out.gcFrac = ratio(gc1-gc0, all1-all0)
		out[i] = l.out
	}
	return out, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// decodeAllocs measures the heap allocations of decoding each replayed
// request line into a server.Request, as Serve does.
func decodeAllocs(lines [][]byte) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, l := range lines {
		var req server.Request
		json.Unmarshal(l, &req) //nolint:errcheck // the server decoded these lines
	}
	runtime.ReadMemStats(&ms1)
	return ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(lines)))
}

// layerRow is one row of the per-layer table.
type layerRow struct {
	name  string
	calls int64
	self  float64 // nanoseconds
}

// attribution splits the traced replay's end-to-end time into layers.
// The total is what the replayed requests cost the client, round trip by
// round trip; wire is that minus server.serve of the same requests,
// server.other is server.serve minus decode minus the library roots, and
// every library span contributes its self time.
func attribution(tr *replayResult) (rows []layerRow, total float64) {
	calls := map[string]int64{}
	self := map[string]float64{}
	st := selfTimes(tr.rec.spans)
	kind := map[int]string{} // span ID -> name
	for _, s := range tr.rec.spans {
		kind[s.ID] = s.Name
	}
	var serve, decode, roots float64
	for _, s := range tr.rec.spans {
		name := s.Name
		switch {
		case name == "server.serve":
			serve += float64(s.dur())
			continue
		case name == "server.decode":
			decode += float64(s.dur())
			calls[name]++
			self[name] += float64(s.dur())
			continue
		case kind[s.Parent] == "server.serve":
			roots += float64(s.dur())
		}
		if name == "compile.pipeline" {
			name = "funccache.stitch"
		}
		calls[name]++
		self[name] += st[s.ID]
	}
	reqs := tr.requests()
	for _, t := range tr.tcp {
		total += float64(t)
	}
	calls["wire"], self["wire"] = reqs, total-float64(tr.serveTotal())
	calls["server.other"], self["server.other"] = reqs, serve-decode-roots
	for _, name := range layerRows {
		rows = append(rows, layerRow{name, calls[name], self[name]})
	}
	return rows, total
}

// formatLayers renders the per-layer table.
func formatLayers(workload string, rows []layerRow, total float64, reqs int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer attribution, %s: %d requests, %.3f ms per request end to end\n",
		workload, reqs, total/1e6/float64(max(reqs, 1)))
	fmt.Fprintf(&b, "  %-18s %9s %11s %12s %7s\n", "layer", "calls", "self ms", "us/call", "share")
	var sum float64
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(&b, "  %-18s %9d %11.2f %12.3f %6.1f%%\n", r.name, r.calls, r.self/1e6,
			ratio(r.self/1e3, float64(r.calls)), 100*ratio(r.self, total))
	}
	fmt.Fprintf(&b, "  %-18s %9s %11.2f %12s %6.1f%%\n", "total", "", sum/1e6, "", 100*ratio(sum, total))
	return b.String()
}
