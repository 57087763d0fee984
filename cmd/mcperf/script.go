package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/debuginfo"
	"repro/internal/mach"
	"repro/internal/randprog"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/pkg/minic"
)

// hotSrc is the BenchmarkServeContinue program: a stop inside its loop
// body costs a handful of instructions to reach again, so a continue there
// is almost pure request overhead.
const hotSrc = `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100000000; i = i + 1) {
		s = s + i;
		if (s > 1000000000) {
			s = s - 1000000000;
		}
	}
	print(s);
	return s;
}
`

// artSpec is one program under one pipeline configuration, as a compile
// request names it.
type artSpec struct {
	Workload string // built-in workload the daemon compiles by name; "" for inline source
	Name     string // file name; the daemon names workload compiles "<workload>.mc"
	Src      string
	Cfg      string // "O2", "O1", "O0" or "O2NoRegAlloc"
	// Fresh marks a program compiled anew in each unit (the compile
	// workload's), whose edits recompile the unit's previous version.
	Fresh bool
}

func workloadArt(name, cfg string) artSpec {
	return artSpec{Workload: name, Name: name + ".mc", Src: bench.MustSource(name), Cfg: cfg}
}

func (a artSpec) label() string { return strings.TrimSuffix(a.Name, ".mc") + "/" + a.Cfg }

// spec is the wire configuration for a.Cfg.
func (a artSpec) spec() *server.ConfigSpec {
	f := false
	switch a.Cfg {
	case "O1":
		return &server.ConfigSpec{Opt: "O1"}
	case "O0":
		return &server.ConfigSpec{Opt: "O0"}
	case "O2NoRegAlloc":
		return &server.ConfigSpec{Opt: "O2", RegAlloc: &f, Sched: &f}
	}
	return nil
}

// options are the pkg/minic options equivalent to a.Cfg.
func (a artSpec) options() []minic.Option {
	switch a.Cfg {
	case "O1":
		return []minic.Option{minic.WithOptLevel(1)}
	case "O0":
		return []minic.Option{minic.WithOptLevel(0)}
	case "O2NoRegAlloc":
		return []minic.Option{minic.WithRegAlloc(false), minic.WithSched(false)}
	}
	return nil
}

// brk is one breakpoint, by function and statement.
type brk struct {
	Fn   string
	Stmt int
}

// action is one interactive command: 'c'ontinue, 's'tep, 'i'nfo or
// 'p'rint. A print names the Sel-th variable (modulo their count) of the
// last info at the same stop, or becomes an info when there was none.
type action struct {
	Op  byte
	Sel int
}

// unit is one closed-loop piece of a workload's script: an interactive
// session, a harness visit, a compile iteration or a churn revisit. Units
// are a pure function of the seed, the unit index and the candidate
// tables, so any connection can run any unit and the script does not
// depend on how connections interleave.
type unit struct {
	Index   int
	Art     int // index into workload.arts; -1 for compile iterations
	Breaks  []brk
	Actions []action
	K       int   // harness: send info at the first K stops
	Prog    int64 // compile: randprog seed of the fresh program
	Edits   []int // compile: constant of each appended function
}

// String renders the unit canonically; identical seeds give identical
// renderings byte for byte.
func (u *unit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "unit %d art=%d k=%d prog=%d edits=%v breaks=%v actions=", u.Index, u.Art, u.K, u.Prog, u.Edits, u.Breaks)
	for _, a := range u.Actions {
		fmt.Fprintf(&b, "%c%d ", a.Op, a.Sel)
	}
	return b.String()
}

// key identifies what the unit does, whatever its index: units with equal
// keys have equal transcripts.
func (u *unit) key() string {
	v := *u
	v.Index = 0
	return v.String()
}

// Workload parameters. The comment on each workload in the package doc
// says why it exists; these numbers size it.
const (
	interactiveActions = 200 // about this many actions per session (±20)
	harnessK           = 24  // info at each of the first K stops of a visit
	harnessStopsLo     = 30  // a harness visit stops this many times...
	harnessStopsHi     = 60  // ...to this many, before running to exit
	compileEdits       = 3   // one-function edits after each cold compile
	compileWarmUps     = 2   // warm-up iterations of the compile workload

	hotCap       = 256       // interactive profile: hits counted per statement
	hotMaxSteps  = 2_000_000 // interactive profile: instructions run
	hotCost      = 60_000    // interactive: max est. instructions per session
	rareCap      = 64        // harness profile: a statement this hot is not rare
	rareGap      = 2000      // harness: max mean instructions between a statement's stops
	rareMaxSteps = 100_000_000
	earlyMax     = 20_000 // churn: first hit within this many instructions
	earlyPick    = 8      // churn: choose among this many earliest statements
)

// workload is one traffic mix: the daemon flags it runs under, its
// artifacts, and the generator of its units.
type workload struct {
	name  string
	why   string
	conns int
	// round is how many consecutive units cover the artifact set once; a
	// script is whole rounds, so every run sees the same mix of artifacts.
	round int
	// perSecond is about how many units the connections complete per
	// second at the reference speed; it sizes the script (scriptUnits).
	perSecond float64
	// flags are the daemon's command-line flags; {spill} stands for the
	// run's spill directory.
	flags []string
	arts  []artSpec
	seed  int64

	// cands[i] are artifact i's breakpoint candidates, chosen from an
	// in-process profile of that artifact (see profile).
	cands [][]stmtProf
	// progs[i] is the randprog seed of compile unit i's program; warm
	// holds the warm-up iterations' programs (see compilableProg).
	progs, warm []int64
}

var workloadNames = []string{"interactive", "harness", "compile", "churn"}

// churnBudget is the churn daemon's -mem-budget: about a third of the
// accounted bytes of its 24 artifacts with their analyses built (about
// 9.5 MB in total when the budget was chosen). It is fixed, not derived
// from the program, so a change that shrinks artifacts shows as fewer
// evictions rather than as a different benchmark.
const churnBudget = 3_200_000

// newWorkload returns the named workload with its static definition; call
// prepare to profile its artifacts before generating units.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "interactive":
		w.why = "a person at the debugger: tiny requests, so wire, decode, dispatch and session lookup dominate and no compile layer runs"
		w.conns, w.round, w.perSecond = 2, len(bench.Names)+1, 218
		for _, n := range bench.Names {
			w.arts = append(w.arts, workloadArt(n, "O2"))
		}
		w.arts = append(w.arts, artSpec{Name: "hot.mc", Src: hotSrc, Cfg: "O2"})
	case "harness":
		w.why = "an oracle/coverage harness: runs to exit make the VM the largest layer and coverage classifies in bulk"
		// One connection, as the oracle's remote check drives a daemon; a
		// second would make each request's latency depend on where the
		// other connection's run to exit happens to be.
		w.conns, w.round, w.perSecond = 1, 2*len(bench.Names), 7.2
		for _, n := range bench.Names {
			w.arts = append(w.arts, workloadArt(n, "O2"), workloadArt(n, "O2NoRegAlloc"))
		}
	case "compile":
		w.why = "edit, compile, first stop: cold compiles load opt and regalloc, one-function edits the front end and function cache"
		w.conns, w.round, w.perSecond = 1, 1, 33
		// One compile worker: layer times then add up to the compile time,
		// and a per-function saving shows in full instead of halved by a
		// second worker.
		w.flags = []string{"-compile-workers", "1", "-workers", "1"}
	case "churn":
		w.why = "a working set three times the memory budget: evictions write spill files, revisits read them back"
		w.conns, w.round, w.perSecond = 1, 1, 372
		for _, n := range bench.Names {
			for _, c := range []string{"O0", "O1", "O2"} {
				w.arts = append(w.arts, workloadArt(n, c))
			}
		}
		w.flags = []string{"-shards", "1", "-mem-budget", fmt.Sprint(churnBudget), "-spill-dir", "{spill}"}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// scriptUnits is the script's length for a measured phase of seconds:
// whole rounds, at least one, of as many units as the reference speed
// completes in that time. A faster machine runs out of script a little
// early; a slower one stops after fewer rounds (see connPool).
func (w *workload) scriptUnits(seconds float64) int {
	rounds := int(math.Ceil(seconds * w.perSecond / float64(w.round)))
	return max(1, rounds) * w.round
}

// daemonArgs returns the daemon flags with the spill directory filled in.
func (w *workload) daemonArgs(spill string) []string {
	out := make([]string, len(w.flags))
	for i, f := range w.flags {
		out[i] = strings.ReplaceAll(f, "{spill}", spill)
	}
	return out
}

// prepare readies the script of a run of units units. It compiles the
// workload's artifacts in-process and profiles them to choose breakpoint
// candidates, or, for the compile workload, picks the programs. Candidates
// are statements the current compiler gives a code location, so the
// script is deterministic for a given seed and program version; the
// report prints their digest.
func (w *workload) prepare(lib *library, units int) error {
	n := len(w.arts)
	if w.name == "compile" {
		w.progs = make([]int64, units)
		w.warm = make([]int64, compileWarmUps)
		n = units + compileWarmUps
	}
	w.cands = make([][]stmtProf, len(w.arts))
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			switch {
			case w.name != "compile":
				errs[i] = w.prepareArt(lib, i)
			case i < units:
				w.progs[i], errs[i] = compilableProg(w.seed*1_000_000 + int64(i))
			default:
				// Warm-up programs do not depend on the seed, so neither
				// does the set-up they time.
				w.warm[i-units], errs[i] = compilableProg(-1 - int64(i-units))
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// compilableProg returns the first of a few randprog seeds from base on
// whose program the pipeline succeeds at O2. Now and then randprog
// generates a program the register allocator rejects; a benchmark must
// not send requests that fail, so the script skips such programs.
func compilableProg(base int64) (int64, error) {
	var err error
	for k := int64(0); k < 8; k++ {
		p := base + k*100_003
		if _, err = compile.Compile("rand.mc", randprog.Gen(p), compile.O2()); err == nil {
			return p, nil
		}
	}
	return 0, fmt.Errorf("no program from randprog seed %d on compiles: %w", base, err)
}

func (w *workload) prepareArt(lib *library, i int) error {
	a := w.arts[i]
	switch w.name {
	case "interactive":
		ps, err := lib.profile(a, hotMaxSteps, hotCap)
		if err != nil {
			return fmt.Errorf("%s: %w", a.label(), err)
		}
		w.cands[i] = hotCandidates(ps)
	case "harness":
		ps, err := lib.profile(a, rareMaxSteps, rareCap)
		if err != nil {
			return fmt.Errorf("%s: %w", a.label(), err)
		}
		w.cands[i] = rareCandidates(ps)
	case "churn":
		ps, err := lib.profile(a, earlyMax, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", a.label(), err)
		}
		w.cands[i] = earlyCandidates(ps)
	}
	if w.name != "compile" && len(w.cands[i]) == 0 {
		return fmt.Errorf("%s: no breakpoint candidates", a.label())
	}
	return nil
}

// rng returns a generator seeded from the run seed and a purpose, so
// every choice the script makes is independent of every other.
func rng(seed int64, purpose string, i int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i+1)*0xBF58476D1CE4E5B9
	for _, c := range purpose {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// unitAt generates unit i of the script.
func (w *workload) unitAt(i int) *unit {
	u := &unit{Index: i, Art: -1}
	r := rng(w.seed, "unit", i)
	pick := func() int {
		// The artifact order is a fresh permutation each round.
		perm := rng(w.seed, "round", i/w.round).Perm(w.round)
		return perm[i%w.round]
	}
	switch w.name {
	case "interactive":
		u.Art = pick()
		c := w.cands[u.Art][r.Intn(len(w.cands[u.Art]))]
		u.Breaks = []brk{{c.Fn, c.Stmt}}
		n := interactiveActions - 20 + r.Intn(41)
		u.Actions = make([]action, n)
		u.Actions[0] = action{Op: 'c'} // info needs a stop first
		for k := 1; k < n; k++ {
			x := r.Intn(100)
			switch {
			case x < 60:
				u.Actions[k].Op = 'c'
			case x < 75:
				u.Actions[k].Op = 's'
			case x < 90:
				u.Actions[k].Op = 'i'
			default:
				u.Actions[k] = action{Op: 'p', Sel: r.Intn(1 << 16)}
			}
		}
	case "harness":
		u.Art = pick()
		u.Breaks = harnessVisit(w.cands[u.Art], r)
		u.K = harnessK
	case "compile":
		u.Prog = w.progs[i]
		for k := 0; k < compileEdits; k++ {
			u.Edits = append(u.Edits, r.Intn(1000))
		}
	case "churn":
		u.Art = r.Intn(len(w.arts))
		c := w.cands[u.Art][r.Intn(len(w.cands[u.Art]))]
		u.Breaks = []brk{{c.Fn, c.Stmt}}
	}
	return u
}

// warmUnits are the compile workload's warm-up iterations: programs the
// measured phase never compiles.
func (w *workload) warmUnits() []*unit {
	us := make([]*unit, len(w.warm))
	for i, p := range w.warm {
		us[i] = &unit{Index: -1 - i, Art: -1, Prog: p, Edits: []int{1, 2, 3}[:compileEdits]}
	}
	return us
}

// stmtProf is one statement's profile: how often a session stopping there
// would stop (counted up to the profile's limit) and the instruction counts
// at the first and the last counted stop.
type stmtProf struct {
	Fn          string
	Stmt        int
	Hits        int
	First, Last int64
	Complete    bool // the profiled run reached program exit
}

// profile runs art's program once with every statement that has a code
// location armed, counting each statement's stops up to maxHits (a
// statement is disarmed when it reaches it), for at most maxSteps
// instructions. The
// stops a session with only statement s armed would make are exactly s's
// stops here: every resume skips the current instruction, as
// debugger.Continue does.
func profile(art *minic.Artifact, maxSteps int64, maxHits int) ([]stmtProf, error) {
	m, err := vm.New(art.Result().Mach)
	if err != nil {
		return nil, err
	}
	m.MaxSteps = maxSteps
	type pos struct {
		b   *mach.Block
		idx int
	}
	var ps []stmtProf
	var locs [][]debuginfo.Loc
	var fns []*mach.Func
	at := map[pos][]int{}
	for _, f := range art.Funcs() {
		t := art.Analysis(f).Table
		for s := 0; s < t.NumStmts; s++ {
			if !t.HasOwnLoc(s) {
				continue
			}
			ls, _ := t.LocsOf(s)
			if len(ls) == 0 {
				l, _ := t.LocOf(s)
				ls = []debuginfo.Loc{l}
			}
			for _, l := range ls {
				at[pos{l.Block, l.Idx}] = append(at[pos{l.Block, l.Idx}], len(ps))
			}
			ps = append(ps, stmtProf{Fn: f.Name, Stmt: s})
			locs = append(locs, ls)
			fns = append(fns, f)
		}
	}
	arm := func() *vm.BreakSet {
		bs := m.NewBreakSet()
		for i := range ps {
			if ps[i].Hits < maxHits {
				for _, l := range locs[i] {
					bs.Add(fns[i], l.Block, l.Idx)
				}
			}
		}
		return bs
	}
	bs := arm()
	skip := false
	for {
		if err := m.RunBreaks(bs, skip); err != nil {
			if errors.Is(err, vm.ErrStepLimit) {
				return ps, nil
			}
			return nil, err
		}
		if m.Halted() {
			break
		}
		p := m.Position()
		rearm := false
		for _, i := range at[pos{p.Block, p.Idx}] {
			if ps[i].Hits >= maxHits {
				continue
			}
			ps[i].Hits++
			if ps[i].Hits == 1 {
				ps[i].First = m.Steps
			}
			ps[i].Last = m.Steps
			rearm = rearm || ps[i].Hits == maxHits
		}
		if rearm {
			bs = arm()
		}
		skip = true
	}
	for i := range ps {
		ps[i].Complete = true
	}
	return ps, nil
}

// hotCandidates are statements stopped at hotCap times within the profile
// whose estimated session cost (the first stop plus about 120 continues at
// the average gap) is small; if none is that cheap, the four cheapest.
func hotCandidates(ps []stmtProf) []stmtProf {
	cost := func(p stmtProf) int64 { return p.First + 120*(p.Last-p.First)/int64(hotCap-1) }
	var hot []stmtProf
	for _, p := range ps {
		if p.Hits == hotCap {
			hot = append(hot, p)
		}
	}
	sort.SliceStable(hot, func(i, j int) bool { return cost(hot[i]) < cost(hot[j]) })
	n := 0
	for n < len(hot) && cost(hot[n]) <= hotCost {
		n++
	}
	return hot[:max(n, min(4, len(hot)))]
}

// rareCandidates are statements a complete run stops at fewer than
// rareCap times, so a visit armed there can run to exit in a bounded
// number of continues, and whose stops are at most rareGap instructions
// apart on average. Without that bound the continues between stops would
// range from tens to hundreds of thousands of instructions depending on
// the seed's draw, and so would every harness stop metric.
func rareCandidates(ps []stmtProf) []stmtProf {
	var out []stmtProf
	for _, p := range ps {
		if p.Complete && p.Hits > 0 && p.Hits < rareCap &&
			(p.Hits == 1 || (p.Last-p.First)/int64(p.Hits-1) <= rareGap) {
			out = append(out, p)
		}
	}
	return out
}

// harnessVisit picks three rare statements whose stops add up to between
// harnessStopsLo and harnessStopsHi, so every visit does about the same
// number of stops whatever the seed.
func harnessVisit(cands []stmtProf, r *rand.Rand) []brk {
	if len(cands) == 0 {
		return nil
	}
	var best []int
	bestMiss := -1
	for try := 0; try < 400; try++ {
		idx := r.Perm(len(cands))[:min(3, len(cands))]
		sum := 0
		for _, i := range idx {
			sum += cands[i].Hits
		}
		miss := max(harnessStopsLo-sum, sum-harnessStopsHi, 0)
		if bestMiss < 0 || miss < bestMiss {
			best, bestMiss = idx, miss
		}
		if miss == 0 {
			break
		}
	}
	sort.Ints(best)
	out := make([]brk, len(best))
	for k, i := range best {
		out[k] = brk{cands[i].Fn, cands[i].Stmt}
	}
	return out
}

// earlyCandidates are the earliest-reached statements, so a revisit's one
// continue is short and the reopen time is the store's, not the VM's.
func earlyCandidates(ps []stmtProf) []stmtProf {
	var out []stmtProf
	for _, p := range ps {
		if p.Hits > 0 {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].First < out[j].First })
	return out[:min(earlyPick, len(out))]
}
