// Package oracle is the differential O0-vs-optimized validation engine:
// the standing harness that makes the classifier's central promise — a
// value shown without a warning is the value the source program computed
// — empirically testable at corpus scale, in the style of "Who's
// Debugging the Debuggers?" (Di Luna et al.).
//
// For each seed it generates a randprog program, compiles it unoptimized
// (the ground truth: no pass has run, every initialized variable is
// current) and under each optimized configuration, and drives all builds
// through the same breakpoint schedule with plain continues. Stops are
// dynamically aligned by arrival count: execution is deterministic and
// stops don't perturb it, so when a statement is reached the same total
// number of times in both builds, its i-th arrival is the same
// source-level event in each (see diffTraces for why keys with
// differing totals must be skipped, not first-matched). Breakpoints
// that resolved by falling back to a later statement are skipped — the
// builds may then be stopped at genuinely different source points, and
// comparing them would manufacture false defects.
//
// At each aligned stop, over every variable and every struct field:
//
//   - a *current* verdict whose value differs from the O0 trace is a
//     defect — the debugger displayed a wrong value with no warning;
//   - a *recovered* value that disagrees with ground truth is a defect —
//     §2.5 recovery claims to reconstruct the expected value, so it is
//     held to the same standard as currency (a wrong recovery is worse
//     than a warning: the user is told the value is trustworthy);
//   - differing program output or exit value between builds is a defect
//     in the optimizer itself (a miscompile), which the oracle reports
//     rather than masks.
//
// Warnings themselves (noncurrent, suspect, nonresident) are never
// defects: the classifier is allowed to be conservative, only never
// wrong in what it vouches for.
//
// The same sweep aggregates the coverage metrics (internal/coverage)
// across the corpus, so the cost of one corpus run buys both the
// soundness check and the Stinnett & Kell-style recoverability numbers.
package oracle

import (
	"fmt"
	"sort"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/debuginfo"
	"repro/internal/randprog"
	"repro/internal/vm"
	"repro/pkg/minic"
)

// Mismatch is one recorded defect: a stop where an optimized build's
// answer disagrees with ground truth.
type Mismatch struct {
	Seed   int64  // randprog seed (-1 when the source didn't come from Gen)
	Config string // optimized configuration name
	Stop   string // "fn:stmt" of the aligned stop
	Var    string // variable or field name ("x", "s0.f1")
	// Kind is what disagreed: "current" (unwarned value differs),
	// "recovered" (reconstructed value differs), "output" or "exit"
	// (the builds computed different results — a miscompile).
	Kind string
	Got  string
	Want string
	// Src is the full failing source; Minimized is the reduced repro
	// when minimization ran (empty otherwise).
	Src       string
	Minimized string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("seed %d %s %s %s: %s = %s, O0 shows %s",
		m.Seed, m.Config, m.Stop, m.Var, m.Kind, m.Got, m.Want)
}

// Options configures a corpus run.
type Options struct {
	// Seeds are the randprog seeds to sweep; nil means 0..199.
	Seeds []int64
	// Configs are the optimized configurations; nil means O2 and
	// O2NoRegAlloc.
	Configs map[string]compile.Config
	// MaxStops bounds each trace; 0 means 200.
	MaxStops int
	// Minimize reduces each defect's source to a minimal repro.
	Minimize bool
	// Progress, when set, is called once per completed seed.
	Progress func(seed int64, defects int)
}

// DefaultConfigs are the two optimized builds the acceptance sweep runs:
// the full pipeline and the pipeline without register allocation (the
// paper's Figure 5 pair — residence endangerment only exists with
// allocation, so the two surface different defect classes).
func DefaultConfigs() map[string]compile.Config {
	return map[string]compile.Config{
		"O2":           compile.O2(),
		"O2NoRegAlloc": compile.O2NoRegAlloc(),
	}
}

// Totals are the corpus-wide check counters: how much evidence a clean
// run actually accumulated. A corpus that checks nothing passes
// vacuously, so consumers assert floors on these.
type Totals struct {
	Seeds            int
	Stops            int // aligned, exact stops actually compared
	CheckedCurrent   int // current verdicts value-checked against O0
	CheckedRecovered int // recovered values checked against O0
	// AlignSkipped counts breakpoint keys whose total arrival counts
	// differ between the builds — the traces genuinely stop at different
	// source events there (e.g. loop rotation folding away a condition's
	// entry evaluation), so comparing them would manufacture defects.
	// Nothing is dropped silently: every skipped key lands here.
	AlignSkipped int
	// SkippedStops counts the O0 stops at the keys in AlignSkipped: how
	// many ground-truth stops the skipped keys leave unchecked.
	SkippedStops int
	// TruncatedPairs counts trace pairs where a build hit the stop budget
	// (or a VM error) before halting: arrival totals are then unknown, so
	// the pair performs no value checks at all.
	TruncatedPairs int
}

// Result is one corpus run's outcome.
type Result struct {
	Mismatches []Mismatch
	Totals     Totals
	// Coverage aggregates the per-artifact coverage sweep over the
	// corpus, per configuration name (including "O0").
	Coverage map[string]coverage.Counts
}

// Run executes the differential sweep over the corpus.
func Run(o Options) (*Result, error) {
	seeds := o.Seeds
	if seeds == nil {
		for s := int64(0); s < 200; s++ {
			seeds = append(seeds, s)
		}
	}
	configs := o.Configs
	if configs == nil {
		configs = DefaultConfigs()
	}
	maxStops := o.MaxStops
	if maxStops == 0 {
		maxStops = 200
	}

	res := &Result{Coverage: map[string]coverage.Counts{}}
	for _, seed := range seeds {
		src := randprog.Gen(seed)
		name := fmt.Sprintf("rand%d.mc", seed)
		found, err := diffSource(seed, name, src, configs, maxStops, res)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if o.Minimize {
			for i := range found {
				found[i].Minimized = minimizeMismatch(found[i], configs, maxStops)
			}
		}
		res.Mismatches = append(res.Mismatches, found...)
		res.Totals.Seeds++
		if o.Progress != nil {
			o.Progress(seed, len(res.Mismatches))
		}
	}
	return res, nil
}

// diffSource runs the full differential on one source: O0 ground truth
// against every configured optimized build. Coverage and check counters
// accumulate into res when res is non-nil.
func diffSource(seed int64, name, src string, configs map[string]compile.Config, maxStops int, res *Result) ([]Mismatch, error) {
	o0art, err := artifactFor(name, src, compile.O0())
	if err != nil {
		return nil, fmt.Errorf("O0 compile: %w", err)
	}
	brk := schedule(o0art)
	o0, err := runTrace(o0art, brk, maxStops)
	if err != nil {
		return nil, fmt.Errorf("O0 trace: %w", err)
	}
	if res != nil {
		addCoverage(res, "O0", o0art)
	}

	o0Arr := map[string][]int{}
	for i, r := range o0.stops {
		o0Arr[r.key] = append(o0Arr[r.key], i)
	}

	var out []Mismatch
	for _, cfgName := range sortedNames(configs) {
		art, err := artifactFor(name, src, configs[cfgName])
		if err != nil {
			return nil, fmt.Errorf("%s compile: %w", cfgName, err)
		}
		tr, err := runTrace(art, brk, maxStops)
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", cfgName, err)
		}
		if res != nil {
			addCoverage(res, cfgName, art)
		}
		out = append(out, diffTraces(seed, cfgName, src, o0, o0Arr, tr, res)...)
	}
	return out, nil
}

// diffTraces compares one optimized trace against the O0 ground truth.
//
// Alignment is count-based: execution is deterministic and stops don't
// perturb it, so when a statement's code is reached the same total number
// of times in both builds, the i-th arrival is the same source-level
// event in each, and every arrival is compared. When the totals differ
// the builds genuinely stop at different source events — constant folding
// of a rotated loop's entry test deletes the condition's first
// evaluation, making the optimized build's first arrival a *later* event
// than O0's — so the key is skipped and tallied in Totals.AlignSkipped
// instead of being compared against the wrong event. Totals are only
// known when both traces ran to completion; a pair with a truncated
// trace is tallied in Totals.TruncatedPairs and performs no value checks.
func diffTraces(seed int64, cfgName, src string, o0 *trace, o0Arr map[string][]int, tr *trace, res *Result) []Mismatch {
	var out []Mismatch
	record := func(stop, v, kind, got, want string) {
		out = append(out, Mismatch{
			Seed: seed, Config: cfgName, Stop: stop, Var: v,
			Kind: kind, Got: got, Want: want, Src: src,
		})
	}

	if !o0.halted || !tr.halted {
		if res != nil {
			res.Totals.TruncatedPairs++
		}
		return out
	}

	trCnt := map[string]int{}
	for _, r := range tr.stops {
		trCnt[r.key]++
	}
	skipped := map[string]bool{}
	skip := func(key string) {
		if !skipped[key] {
			skipped[key] = true
			if res != nil {
				res.Totals.AlignSkipped++
				res.Totals.SkippedStops += len(o0Arr[key])
			}
		}
	}
	arrival := map[string]int{}
	for _, rec := range tr.stops {
		i := arrival[rec.key]
		arrival[rec.key]++
		idx := o0Arr[rec.key]
		if len(idx) != trCnt[rec.key] {
			skip(rec.key)
			continue
		}
		j := idx[i]
		if !rec.exact || !o0.stops[j].exact {
			continue
		}
		if res != nil {
			res.Totals.Stops++
		}
		for vname, vr := range rec.snap {
			o0r := o0.stops[j].snap[vname]
			// Only O0-current values are ground truth: an O0 report that
			// is uninitialized (or has no readable value) says nothing
			// about what the optimized build should show.
			if o0r == nil || !o0r.HasVal || o0r.Class.State != core.Current {
				continue
			}
			if vr.Class.State == core.Current && vr.HasVal {
				if vr.Val != o0r.Val {
					record(rec.key, vname, "current", fmtVal(vr.Val), fmtVal(o0r.Val))
				}
				if res != nil {
					res.Totals.CheckedCurrent++
				}
			}
			if vr.HasRecovered {
				if vr.RecoveredVal != o0r.Val {
					record(rec.key, vname, "recovered", fmtVal(vr.RecoveredVal), fmtVal(o0r.Val))
				}
				if res != nil {
					res.Totals.CheckedRecovered++
				}
			}
		}
	}
	// Keys the optimized build never (or insufficiently) reached are
	// count-mismatched too; tally them so no key is dropped silently.
	for key, idx := range o0Arr {
		if trCnt[key] != len(idx) {
			skip(key)
		}
	}

	// Miscompile check: both builds ran to completion, so they must have
	// computed the same thing.
	if tr.output != o0.output {
		record("exit", "", "output", fmt.Sprintf("%q", tr.output), fmt.Sprintf("%q", o0.output))
	}
	if tr.exit != o0.exit {
		record("exit", "", "exit", fmt.Sprint(tr.exit), fmt.Sprint(o0.exit))
	}
	return out
}

// breakReq is one (function, statement) breakpoint request, armed
// identically in every build.
type breakReq struct {
	fn   string
	stmt int
}

// schedule derives the breakpoint schedule from the O0 artifact: every
// second statement of every function. Statement numbering comes from the
// frontend, so the same schedule resolves (or fails to resolve) in every
// build of the same source.
func schedule(a *minic.Artifact) []breakReq {
	var out []breakReq
	for _, f := range a.Funcs() {
		for s := 0; s < f.Decl.NumStmts; s += 2 {
			out = append(out, breakReq{f.Name, s})
		}
	}
	return out
}

// stopRec is one stop of a trace: the breakpoint that fired, whether it
// resolved to the statement's own code, and every variable and struct
// field in scope (fields flattened under their qualified names).
type stopRec struct {
	key   string
	exact bool
	snap  map[string]*minic.VarReport
}

type trace struct {
	stops  []stopRec
	halted bool
	output string
	exit   int64
}

// runTrace drives one session over the schedule with plain continues.
// Unresolvable breakpoints are skipped identically in every build;
// execution errors (step budget) end the trace without failing it — the
// stops gathered so far are still aligned.
func runTrace(a *minic.Artifact, brk []breakReq, maxStops int) (*trace, error) {
	s, err := minic.NewSession(a)
	if err != nil {
		return nil, err
	}
	for _, b := range brk {
		s.BreakAtStmt(b.fn, b.stmt) //nolint:errcheck // unresolvable in every build alike
	}
	tr := &trace{}
	for i := 0; i < maxStops; i++ {
		bp, err := s.Continue()
		if err != nil {
			return tr, nil
		}
		if bp == nil {
			tr.halted = true
			tr.output = s.Output()
			tr.exit = s.Debugger().VM.ExitValue()
			return tr, nil
		}
		rec := stopRec{
			key:   fmt.Sprintf("%s:%d", bp.Fn.Name, bp.Stmt),
			exact: debuginfo.StmtOfLoc(bp.Loc) == bp.Stmt,
			snap:  map[string]*minic.VarReport{},
		}
		if reports, err := s.Info(); err == nil {
			for _, r := range reports {
				rec.snap[r.Name] = r
				for _, fr := range r.Fields {
					rec.snap[fr.Name] = fr
				}
			}
		}
		tr.stops = append(tr.stops, rec)
	}
	return tr, nil
}

func artifactFor(name, src string, cfg compile.Config) (*minic.Artifact, error) {
	return minic.Compile(name, src,
		minic.WithPasses(cfg.Opt),
		minic.WithRegAlloc(cfg.RegAlloc),
		minic.WithSched(cfg.Sched))
}

func addCoverage(res *Result, cfgName string, a *minic.Artifact) {
	c := res.Coverage[cfgName]
	c.Add(a.Coverage().Total)
	res.Coverage[cfgName] = c
}

func sortedNames(m map[string]compile.Config) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fmtVal(v vm.Val) string {
	if v.F != 0 {
		return fmt.Sprintf("%d/%g", v.I, v.F)
	}
	return fmt.Sprint(v.I)
}
