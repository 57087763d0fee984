package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/randprog"
	"repro/internal/server"
)

// backend is what a unit drives: the daemon over the protocol (remote) or
// the in-process library reference (local). Both answer in wire shapes,
// so one unit function renders comparable transcripts from either.
type backend interface {
	compile(a artSpec) (compiled, error)
	coverage(artID string) (*server.CoverageInfo, error)
	open(artID string) (string, error)
	brk(sess string, b brk) (*server.StopInfo, error)
	run(sess string, step bool) (stop *server.StopInfo, output string, err error)
	info(sess string) ([]server.VarInfo, error)
	print(sess, name string) (server.VarInfo, error)
	close(sess string) (string, error)
}

// compiled is a compile answer. Latency is the request's round trip when
// the backend is the daemon, zero for the reference.
type compiled struct {
	ID            string
	Funcs         int
	FuncsCompiled int
	Latency       sample
}

// exitOut is one program output seen at exit, checked against the IR
// interpreter on the program's O0 IR.
type exitOut struct {
	Name, Src, Out string
}

// unitResult is what running one unit leaves for the correctness gate and
// the latency metrics.
type unitResult struct {
	Index  int
	Digest [sha256.Size]byte // of the canonical transcript
	Lines  int
	Exits  []exitOut
	// BadEdits counts one-function edits that did not compile exactly one
	// function.
	BadEdits int
	// The unit's time is its requests' round trips, summed per epoch of
	// the measured phase; a churn reopen's leaves out the closing request.
	Spent  []sample
	Reopen []sample
	Cold   sample   // compile: the cold compile's round trip
	Edits  []sample // compile: each edit's round trip
}

// transcript accumulates a unit's canonical lines into a digest. A line
// carries only deterministic content (artifact ids, stops, classified
// variables, output, coverage counts), never session ids or timings.
type transcript struct {
	h hash.Hash
	n int
}

func newTranscript() *transcript { return &transcript{h: sha256.New()} }

func (t *transcript) add(line string) {
	t.h.Write([]byte(line))
	t.h.Write([]byte{'\n'})
	t.n++
}

func canonVars(vs []server.VarInfo) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = loadgen.CanonVar(v)
	}
	return strings.Join(parts, "; ")
}

func canonCoverage(c *server.CoverageInfo) string {
	if c == nil {
		return "coverage none"
	}
	row := func(label string, r server.CoverageCounts) string {
		return fmt.Sprintf("%s pairs=%d cur=%d rec=%d non=%d sus=%d nonres=%d uninit=%d pct=%s/%s/%s",
			label, r.Pairs, r.Current, r.Recovered, r.Noncurrent, r.Suspect, r.Nonresident, r.Uninit,
			r.CurrentPct, r.RecoveredPct, r.NoncurrentPct)
	}
	rows := []string{row("total", c.CoverageCounts)}
	for _, f := range c.Funcs {
		rows = append(rows, row(f.Func, f.CoverageCounts))
	}
	return "coverage " + strings.Join(rows, "; ")
}

// maxContinues bounds a harness visit's run to exit; the visit's
// breakpoints were chosen to stop far fewer times.
const maxContinues = 4 * rareCap * 3

// runUnit drives one unit of w against b. A failed request aborts the
// unit; the session, if open, is closed best effort.
func runUnit(w *workload, b backend, u *unit) (res unitResult, err error) {
	res.Index = u.Index
	t := newTranscript()
	sess := ""
	defer func() {
		if err != nil && sess != "" {
			b.close(sess) //nolint:errcheck // best effort after a failure
		}
		res.Digest = [sha256.Size]byte(t.h.Sum(nil))
		res.Lines = t.n
	}()
	closeSess := func() error {
		out, err := b.close(sess)
		if err != nil {
			return fmt.Errorf("close: %w", err)
		}
		sess = ""
		t.add(fmt.Sprintf("close output=%q", out))
		return nil
	}
	openArt := func(a artSpec) (compiled, error) {
		c, err := b.compile(a)
		if err != nil {
			return c, fmt.Errorf("compile %s: %w", a.label(), err)
		}
		t.add(fmt.Sprintf("compile artifact=%s funcs=%d", c.ID, c.Funcs))
		return c, nil
	}
	openSess := func(id string) error {
		s, err := b.open(id)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		sess = s
		t.add("open")
		return nil
	}
	arm := func(bs []brk) error {
		for _, x := range bs {
			stop, err := b.brk(sess, x)
			if err != nil {
				return fmt.Errorf("break %s:%d: %w", x.Fn, x.Stmt, err)
			}
			t.add("break " + loadgen.CanonStop(stop, false, ""))
		}
		return nil
	}
	// exec resumes the session and reports whether it is still stopped.
	exec := func(a artSpec, step bool) (*server.StopInfo, error) {
		stop, out, err := b.run(sess, step)
		op := "continue"
		if step {
			op = "step"
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op, err)
		}
		t.add(op + " " + loadgen.CanonStop(stop, stop == nil, out))
		if stop == nil {
			res.Exits = append(res.Exits, exitOut{a.Name, a.Src, out})
		}
		return stop, nil
	}
	info := func() ([]server.VarInfo, error) {
		vs, err := b.info(sess)
		if err != nil {
			return nil, fmt.Errorf("info: %w", err)
		}
		t.add("info " + canonVars(vs))
		return vs, nil
	}

	switch w.name {
	case "interactive":
		a := w.arts[u.Art]
		c, err := openArt(a)
		if err != nil {
			return res, err
		}
		if err := openSess(c.ID); err != nil {
			return res, err
		}
		if err := arm(u.Breaks); err != nil {
			return res, err
		}
		// known maps a stop location to the variables its last info listed,
		// which is what a print may name.
		known := map[server.StopInfo][]string{}
		var at server.StopInfo
		for _, act := range u.Actions {
			op := act.Op
			if op == 'p' && len(known[at]) == 0 {
				op = 'i'
			}
			switch op {
			case 'c', 's':
				stop, err := exec(a, op == 's')
				if err != nil {
					return res, err
				}
				if stop == nil {
					return res, closeSess()
				}
				at = *stop
			case 'i':
				vs, err := info()
				if err != nil {
					return res, err
				}
				names := make([]string, len(vs))
				for i, v := range vs {
					names[i] = v.Name
				}
				known[at] = names
			case 'p':
				names := known[at]
				v, err := b.print(sess, names[act.Sel%len(names)])
				if err != nil {
					return res, fmt.Errorf("print: %w", err)
				}
				t.add("print " + loadgen.CanonVar(v))
			}
		}
		return res, closeSess()

	case "harness":
		a := w.arts[u.Art]
		c, err := openArt(a)
		if err != nil {
			return res, err
		}
		cov, err := b.coverage(c.ID)
		if err != nil {
			return res, fmt.Errorf("coverage: %w", err)
		}
		t.add(canonCoverage(cov))
		if err := openSess(c.ID); err != nil {
			return res, err
		}
		if err := arm(u.Breaks); err != nil {
			return res, err
		}
		for stops := 0; ; stops++ {
			if stops == maxContinues {
				return res, fmt.Errorf("visit of %s did not exit within %d continues", a.label(), maxContinues)
			}
			stop, err := exec(a, false)
			if err != nil {
				return res, err
			}
			if stop == nil {
				break
			}
			if stops < u.K {
				if _, err := info(); err != nil {
					return res, err
				}
			}
		}
		return res, closeSess()

	case "compile":
		a := artSpec{Name: fmt.Sprintf("rand%d.mc", u.Prog), Src: randprog.Gen(u.Prog), Cfg: "O2", Fresh: true}
		for v := 0; v <= len(u.Edits); v++ {
			if v > 0 {
				a.Src += fmt.Sprintf("\nint edit%d(int x) { return x + %d; }\n", v, u.Edits[v-1])
			}
			c, err := openArt(a)
			if err != nil {
				return res, err
			}
			if v == 0 {
				res.Cold = c.Latency
			} else {
				res.Edits = append(res.Edits, c.Latency)
				if c.FuncsCompiled != 1 {
					res.BadEdits++
				}
			}
			if err := openSess(c.ID); err != nil {
				return res, err
			}
			stop, err := exec(a, true)
			if err != nil {
				return res, err
			}
			if stop != nil {
				if _, err := info(); err != nil {
					return res, err
				}
			}
			if err := closeSess(); err != nil {
				return res, err
			}
		}
		return res, nil

	case "churn":
		a := w.arts[u.Art]
		c, err := openArt(a)
		if err != nil {
			return res, err
		}
		if err := openSess(c.ID); err != nil {
			return res, err
		}
		if err := arm(u.Breaks); err != nil {
			return res, err
		}
		stop, err := exec(a, false)
		if err != nil {
			return res, err
		}
		if stop != nil {
			if _, err := info(); err != nil {
				return res, err
			}
		}
		return res, closeSess()
	}
	return res, fmt.Errorf("unknown workload %q", w.name)
}
