package debugger_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/debugger"
	"repro/internal/opt"
)

// stop is one breakpoint with a code location, chosen on the compiled
// artifact so both sides arm the same ones.
type stop struct {
	fn   string
	stmt int
}

// firstStops returns the first n statements, in program order, that have
// a code location in res.
func firstStops(res *compile.Result, n int) []stop {
	var out []stop
	for _, f := range res.Mach.Funcs {
		t := core.Analyze(f).Table
		for s := 0; s < t.NumStmts && len(out) < n; s++ {
			if _, ok := t.LocOf(s); ok {
				out = append(out, stop{f.Name, s})
			}
		}
	}
	return out
}

// transcript drives one session over res: it arms stops, continues to at
// most ten of them, then steps 50 times, and at every stop records the
// position, info and a print of every variable info listed; a second
// session runs to exit and records the output.
func transcript(t *testing.T, res *compile.Result, set *core.AnalysisSet, stops []stop) []string {
	t.Helper()
	d, err := debugger.NewShared(res, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stops {
		if _, err := d.BreakAtStmt(s.fn, s.stmt); err != nil {
			t.Fatalf("break %s:%d: %v", s.fn, s.stmt, err)
		}
	}
	var out []string
	record := func(cmd string, bp *debugger.Breakpoint, err error) {
		switch {
		case err != nil:
			out = append(out, fmt.Sprintf("%s: error %v", cmd, err))
			return
		case bp == nil:
			out = append(out, fmt.Sprintf("%s: halted output=%q", cmd, d.Output()))
			return
		}
		out = append(out, fmt.Sprintf("%s: stop %s:%d line %d", cmd, bp.Fn.Name, bp.Stmt, bp.Line))
		vars, err := d.Info()
		if err != nil {
			out = append(out, fmt.Sprintf("info: error %v", err))
			return
		}
		for _, v := range vars {
			out = append(out, "info "+v.Display())
			p, err := d.Print(v.Name)
			if err != nil {
				out = append(out, fmt.Sprintf("print %s: error %v", v.Name, err))
				continue
			}
			out = append(out, "print "+p.Display())
		}
	}
	for i := 0; i < 10 && !d.Halted(); i++ {
		bp, err := d.Continue()
		record("continue", bp, err)
	}
	for i := 0; i < 50 && !d.Halted(); i++ {
		bp, err := d.Step()
		record("step", bp, err)
	}
	run, err := debugger.NewShared(res, set)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := run.Continue()
	out = append(out, fmt.Sprintf("run: stop %v error %v halted %v output=%q", bp != nil, err, run.Halted(), run.Output()))
	return out
}

// TestLazySpillSessionsMatchCompiled checks that a session on a spill
// read-back artifact, whose function bodies load on first use, answers
// exactly as one on the compiled artifact, and that the bodies really are
// deferred: over the eight workloads at O0, O1, O2 and O2NoRegAlloc, the
// transcripts (breakpoints at the first eight statements with a location,
// ten continues, 50 steps, info and print at every stop, a run to exit)
// and the coverage sweeps are identical, and a session stopped at main's
// first located statement has loaded fewer functions than the program has.
func TestLazySpillSessionsMatchCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload to exit at four configs")
	}
	cfgs := []struct {
		name string
		cfg  compile.Config
	}{
		{"O0", compile.O0()},
		{"O1", compile.Config{Opt: opt.O1(), RegAlloc: true, Sched: true}},
		{"O2", compile.O2()},
		{"O2NoRegAlloc", compile.O2NoRegAlloc()},
	}
	for _, w := range bench.Names {
		for _, c := range cfgs {
			t.Run(w+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				res, err := compile.Compile(w+".mc", bench.MustSource(w), c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := compile.EncodeSpill(c.cfg, res)
				if err != nil {
					t.Fatal(err)
				}
				decode := func() *compile.Result {
					got, _, _, _, err := compile.DecodeSpill(data)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}

				table := core.Analyze(res.Mach.LookupFunc("main")).Table
				first := 0
				for ; first < table.NumStmts; first++ {
					if _, ok := table.LocOf(first); ok {
						break
					}
				}
				lazy := decode()
				d, err := debugger.New(lazy)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.BreakAtStmt("main", first); err != nil {
					t.Fatal(err)
				}
				if bp, err := d.Continue(); err != nil || bp == nil {
					t.Fatalf("continue to main:%d = %v, %v", first, bp, err)
				}
				loaded := 0
				for _, f := range lazy.Mach.Funcs {
					if f.Loaded() {
						loaded++
					}
				}
				if loaded >= len(lazy.Mach.Funcs) {
					t.Fatalf("stopped at main:%d with %d of %d functions loaded; want fewer",
						first, loaded, len(lazy.Mach.Funcs))
				}

				stops := firstStops(res, 8)
				want := transcript(t, res, core.NewAnalysisSet(), stops)
				if !strings.HasPrefix(want[0], "continue: stop ") || !strings.Contains(want[len(want)-1], "halted true") {
					t.Fatalf("compiled session neither stops nor exits: first %q, last %q", want[0], want[len(want)-1])
				}
				got := transcript(t, decode(), core.NewAnalysisSet(), stops)
				if len(got) != len(want) {
					t.Fatalf("transcript has %d lines, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("transcript line %d:\n got %s\nwant %s", i, got[i], want[i])
					}
				}

				sweep := func(r *compile.Result) string {
					b, err := json.Marshal(coverage.Sweep(r, core.NewAnalysisSet()))
					if err != nil {
						t.Fatal(err)
					}
					return string(b)
				}
				if g, w := sweep(decode()), sweep(res); g != w {
					t.Fatalf("coverage sweep differs:\n got %s\nwant %s", g, w)
				}
			})
		}
	}
}
