package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// runOpts configures one benchmark run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	// units > 0 fixes the script's length instead of sizing it from
	// seconds (tests, and the exact-repeat check).
	units  int
	trace  bool
	setups int // set-ups made; setup_s is their median
	outDir string
	spans  string // span JSONL path; "" = none
	// replayBudget bounds the untraced replay, whose unit count the traced
	// replay then repeats; replayUnits > 0 fixes that count instead.
	replayBudget time.Duration
	replayUnits  int
	start        func(args []string) (daemon, error)
	log          io.Writer
}

// runOutput is everything one run measured.
type runOutput struct {
	res      result
	rec      record
	deltas   map[string]int64 // stats deltas over the measured phase or the traced replay
	notes    map[string]string
	failures []string
	report   string
	layers   string
}

// warmUp fills the daemon's caches the way the measured phase will use
// them, so that no lazy set-up is timed: every artifact is compiled (its
// analyses precomputed) and a session is opened on it once, which
// predecodes its program. The compile workload instead runs warm-up
// iterations on programs the measured phase never sees.
func warmUp(w *workload, r *remote) error {
	if w.name == "compile" {
		for _, u := range w.warmUnits() {
			if _, err := runUnit(w, r, u); err != nil {
				return err
			}
		}
		return nil
	}
	for _, a := range w.arts {
		c, err := r.compile(a)
		if err != nil {
			return fmt.Errorf("warm-up compile %s: %w", a.label(), err)
		}
		s, err := r.open(c.ID)
		if err != nil {
			return fmt.Errorf("warm-up open %s: %w", a.label(), err)
		}
		if _, err := r.close(s); err != nil {
			return fmt.Errorf("warm-up close %s: %w", a.label(), err)
		}
	}
	return nil
}

// setUp starts a daemon and warms it up; its duration, at the reference
// speed, is one setup_s sample.
func setUp(o *runOpts, w *workload, spill string, cpus []int) (daemon, time.Duration, error) {
	if err := os.RemoveAll(spill); err != nil {
		return nil, 0, err
	}
	ep := &epochs{cpus: cpus}
	if err := ep.boundary(); err != nil {
		return nil, 0, fmt.Errorf("calibrating: %w", err)
	}
	t0 := time.Now()
	d, err := o.start(w.daemonArgs(spill))
	if err != nil {
		return nil, 0, err
	}
	tcp, err := dialTCP(d.addr())
	if err == nil {
		err = warmUp(w, &remote{rt: tcp})
		tcp.Close()
	}
	if err != nil {
		d.stop() //nolint:errcheck // already failing
		return nil, 0, err
	}
	ep.wall = append(ep.wall, time.Since(t0))
	if err := ep.boundary(); err != nil {
		d.stop() //nolint:errcheck // already failing
		return nil, 0, fmt.Errorf("calibrating: %w", err)
	}
	return d, ep.at(0, ep.wall[0]), nil
}

// statsDeltas are the stats counters the per-layer metrics and the
// exact-repeat check read, as deltas between two stats snapshots.
func statsDeltas(a, b *server.Stats) map[string]int64 {
	return map[string]int64{
		"requests":        b.Requests - a.Requests - 1, // the closing stats request itself
		"cache_hits":      b.CacheHits - a.CacheHits,
		"cache_misses":    b.CacheMisses - a.CacheMisses,
		"cache_evictions": b.CacheEvictions - a.CacheEvictions,
		"spill_hits":      b.SpillHits - a.SpillHits,
		"spill_writes":    b.SpillWrites - a.SpillWrites,
		"funcs_compiled":  b.FuncsCompiled - a.FuncsCompiled,
		"funcs_reused":    b.FuncsReused - a.FuncsReused,
		"analyses_built":  b.AnalysesBuilt - a.AnalysesBuilt,
		"coverage_pairs":  b.CoveragePairs - a.CoveragePairs,
	}
}

// runWorkload makes one benchmark run: generate the script, set up the
// daemon (several times, keeping the last), drive the measured phase over
// loopback TCP, stop the daemon, and check every transcript against the
// in-process reference. A traced run replays the script in-process
// instead (traceWorkload).
func runWorkload(o runOpts) (*runOutput, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, format, args...) }
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	units := o.units
	if units == 0 {
		units = w.scriptUnits(o.seconds)
	}
	t0 := time.Now()
	lib := newLibrary()
	if err := w.prepare(lib, units); err != nil {
		return nil, fmt.Errorf("generating the script: %w", err)
	}
	logf("mcperf: %s seed %d: script generated in %.2fs (candidates %s)\n",
		w.name, o.seed, time.Since(t0).Seconds(), candidateDigest(w))
	if o.trace {
		return traceWorkload(o, w, lib, units)
	}

	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	var d daemon
	var setups []float64
	tSetup := time.Now()
	spill := filepath.Join(o.outDir, "spill-"+w.name)
	defer os.RemoveAll(spill)
	for j := 0; j < max(1, o.setups); j++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping a set-up daemon: %w", err)
			}
		}
		var dur time.Duration
		d, dur, err = setUp(&o, w, spill, cpus)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, dur.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // error path
		}
	}()

	ctrlT, err := dialTCP(d.addr())
	if err != nil {
		return nil, err
	}
	defer ctrlT.Close()
	ctrl := &remote{rt: ctrlT}
	remotes := make([]*remote, w.conns)
	for k := range remotes {
		tcp, err := dialTCP(d.addr())
		if err != nil {
			return nil, err
		}
		defer tcp.Close()
		remotes[k] = &remote{rt: tcp, lat: &latencies{}}
	}
	st0, err := ctrl.stats()
	if err != nil {
		return nil, err
	}

	// The measured phase: each connection is a closed loop over units,
	// in epochs with a calibration between them.
	tPhase := time.Now()
	ep := &epochs{cpus: cpus}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.units > 0 {
		budget = 0
	}
	pool, err := newConnPool(units, w.round, w.conns, budget, ep, ep.boundary)
	if err != nil {
		return nil, fmt.Errorf("calibrating: %w", err)
	}
	var mu sync.Mutex
	var results []unitResult
	var failures []string
	// unitFailed counts units that failed without a failed request (a
	// visit that did not exit); failed requests are counted per request.
	var unitFailed int64
	var wg sync.WaitGroup
	for _, r := range remotes {
		r.pool = pool
		wg.Add(1)
		go func(r *remote) {
			defer wg.Done()
			defer pool.leave()
			for {
				i, ok := pool.take()
				if !ok {
					return
				}
				before := r.failed
				res, err := runUnit(w, r, w.unitAt(i))
				res.Spent, r.spent = r.spent, nil
				if w.name == "churn" && len(res.Spent) > 0 {
					// The unit's last request closes the session.
					res.Reopen = slices.Clone(res.Spent)
					res.Reopen[len(res.Reopen)-1].d -= r.last
				}
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Sprintf("unit %d: %v", i, err))
					if r.failed == before {
						unitFailed++
					}
				} else {
					results = append(results, res)
				}
				mu.Unlock()
				if errors.Is(err, errTransport) {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if pool.err != nil {
		return nil, fmt.Errorf("calibrating: %w", pool.err)
	}
	phase := time.Since(tPhase)
	st1, err := ctrl.stats()
	if err != nil {
		return nil, err
	}
	hwm, err := vmHWM(d.pid())
	if err != nil {
		return nil, err
	}
	ctrlT.Close()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })

	var lat latencies
	var attempted, reqFailed int64
	for _, r := range remotes {
		attempted += r.attempted
		reqFailed += r.failed
		for c := range lat.d {
			lat.d[c] = append(lat.d[c], r.lat.d[c]...)
		}
	}
	tGate := time.Now()
	mismatches := checkUnits(w, lib, results)
	failures = append(failures, mismatches...)
	failed := reqFailed + unitFailed + int64(len(mismatches))
	logf("mcperf: %s: set-up %.2fs, measured phase %.2fs (%d epochs, machine speed %.3f), check %.2fs\n",
		w.name, tPhase.Sub(tSetup).Seconds(), phase.Seconds(), len(ep.wall), ep.speed(), time.Since(tGate).Seconds())
	out := &runOutput{deltas: statsDeltas(st0, st1), failures: failures}
	m, notes, err := endToEndMetrics(w, &lat, results, ep, attempted, hwm, setups)
	if err != nil {
		return nil, err
	}
	m["failed_frac"] = metricValue{ratio(float64(failed), float64(attempted)), "frac"}
	out.notes = notes
	out.report = formatReport(w, o, m, notes, attempted, failed, ep, len(results))
	out.rec = record{Workload: w.name, Seed: o.seed, Correct: failed == 0, Metrics: m}
	last := map[string]metricValue{}
	for _, def := range endToEnd {
		last[def.Name] = m[def.Name]
	}
	out.res = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: last}
	return out, nil
}

// traceWorkload makes a traced run: it replays the script's first units
// in-process (see perLayerMetrics), checks every replayed unit as the
// measured phase's are checked, and reports the per-layer metrics.
func traceWorkload(o runOpts, w *workload, lib *library, n int) (*runOutput, error) {
	units := make([]*unit, n)
	for i := range units {
		units[i] = w.unitAt(i)
	}
	// An untraced replay alone gives the heap and GC numbers and the unit
	// count; then an untraced and a traced server replay those units in
	// lockstep, so the tracing overhead is measured on the same machine
	// state rather than on two stretches of a drifting one.
	solo, err := replay(w, units, []bool{false}, o.replayUnits, o.replayBudget, o.outDir)
	if err != nil {
		return nil, err
	}
	pair, err := replay(w, units, []bool{false, true}, solo[0].units, 0, o.outDir)
	if err != nil {
		return nil, err
	}
	out := &runOutput{}
	var results []unitResult
	var attempted, failed int64
	for _, r := range []*replayResult{solo[0], pair[0], pair[1]} {
		results = append(results, r.results...)
		out.failures = append(out.failures, r.failures...)
		attempted += r.attempted
		failed += r.failed
	}
	mismatches := checkUnits(w, lib, results)
	out.failures = append(out.failures, mismatches...)
	failed += int64(len(mismatches))

	tr := pair[1]
	out.deltas = tr.deltas
	pl, table, err := perLayerMetrics(w, solo[0], pair[0], tr)
	if err != nil {
		return nil, err
	}
	if o.spans != "" {
		if err := tr.rec.writeJSONL(o.spans); err != nil {
			return nil, err
		}
	}
	out.report = fmt.Sprintf("mcperf %s, seed %d, traced: %d units replayed on three in-process servers, %d requests, %d failed\n",
		w.name, o.seed, tr.units, attempted, failed)
	out.layers = table
	out.rec = record{Workload: w.name, Seed: o.seed, Trace: 1, Correct: failed == 0, Metrics: pl}
	out.res = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: pl}
	return out, nil
}

// candidateDigest summarizes the breakpoint candidates the script was
// generated from; two runs with equal digests ran the same script family.
func candidateDigest(w *workload) string {
	h := sha256.New()
	fmt.Fprint(h, w.cands, w.progs)
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// checkUnits is the correctness gate. It replays every completed unit on
// the in-process pkg/minic reference and requires a byte-identical
// canonical transcript, checks every program output at exit against the
// IR interpreter, and every one-function edit to have compiled exactly
// one function. It returns one message per failed check.
func checkUnits(w *workload, lib *library, results []unitResult) []string {
	var mu sync.Mutex
	var out []string
	fail := func(format string, args ...any) {
		mu.Lock()
		out = append(out, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	type ref struct {
		once   sync.Once
		digest [sha256.Size]byte
		lines  int
		err    error
	}
	refs := map[string]*ref{}
	work := make(chan unitResult)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loc := newLocal(lib)
			for res := range work {
				u := w.unitAt(res.Index)
				mu.Lock()
				r, ok := refs[u.key()]
				if !ok {
					r = &ref{}
					refs[u.key()] = r
				}
				mu.Unlock()
				r.once.Do(func() {
					loc.reset()
					rr, err := runUnit(w, loc, u)
					r.digest, r.lines, r.err = rr.Digest, rr.Lines, err
				})
				switch {
				case r.err != nil:
					fail("unit %d: reference: %v", res.Index, r.err)
				case !bytes.Equal(r.digest[:], res.Digest[:]) || r.lines != res.Lines:
					fail("unit %d: transcript differs from the in-process reference (%d lines vs %d)", res.Index, res.Lines, r.lines)
				}
				for _, e := range res.Exits {
					want, err := lib.interpOutput(e.Name, e.Src)
					if err != nil {
						fail("unit %d: interpreting %s: %v", res.Index, e.Name, err)
					} else if want != e.Out {
						fail("unit %d: %s printed %q at exit, the IR interpreter %q", res.Index, e.Name, e.Out, want)
					}
				}
				if res.BadEdits > 0 {
					fail("unit %d: %d one-function edits did not compile exactly one function", res.Index, res.BadEdits)
				}
			}
		}()
	}
	for _, r := range results {
		work <- r
	}
	close(work)
	wg.Wait()
	sort.Strings(out)
	return out
}
