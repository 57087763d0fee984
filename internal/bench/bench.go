// Package bench holds the evaluation harness: the eight MiniC workloads
// standing in for the SPEC92 C programs of the paper, and the collectors
// that regenerate every table and figure of the paper's evaluation section
// (Tables 2–4, Figures 5(a) and 5(b)).
package bench

import (
	"embed"
	"fmt"
	"io/fs"
	"strings"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/vm"
)

//go:embed testdata/*.mc
var workloadFS embed.FS

// Names lists the workloads in the paper's Table 2 order.
var Names = []string{"li", "eqntott", "espresso", "gcc", "alvinn", "compress", "ear", "sc"}

// sources holds each workload's text, read from workloadFS once, so a
// compile by name copies nothing.
var sources = func() map[string]string {
	m := make(map[string]string, len(Names))
	for _, name := range Names {
		b, err := workloadFS.ReadFile("testdata/" + name + ".mc")
		if err != nil {
			panic(err)
		}
		m[name] = string(b)
	}
	return m
}()

// Source returns the MiniC source of a workload.
func Source(name string) (string, error) {
	if s, ok := sources[name]; ok {
		return s, nil
	}
	return "", fmt.Errorf("bench: unknown workload %q: %w", name, fs.ErrNotExist)
}

// MustSource is Source for callers that know the name is valid.
func MustSource(name string) string {
	s, err := Source(name)
	if err != nil {
		panic(err)
	}
	return s
}

// CompileWorkload compiles one workload under the given configuration.
func CompileWorkload(name string, cfg compile.Config) (*compile.Result, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	res, err := compile.Compile(name+".mc", src, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", name, err)
	}
	return res, nil
}

// RunWorkload executes a compiled workload on the simulator and returns
// the VM for inspection (output, cycles).
func RunWorkload(res *compile.Result) (*vm.VM, error) {
	m, err := vm.New(res.Mach)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------- table 2

// Table2Row mirrors the paper's Table 2: program sizes and statistics
// relevant to source-level debugging.
type Table2Row struct {
	Program      string
	Lines        int
	Breakpoints  int     // total source breakpoints (statements)
	PerFunction  float64 // average breakpoints per function
	VarsPerBreak float64 // average locals in scope per breakpoint
	Functions    int
}

// Table2 computes program statistics (independent of optimization level —
// they are source properties, computed on an O0 compile).
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range Names {
		res, err := CompileWorkload(name, compile.O0())
		if err != nil {
			return nil, err
		}
		row := Table2Row{Program: name}
		row.Lines = res.File.NumLines()
		totalVars := 0
		totalBPs := 0
		for _, f := range res.Mach.Funcs {
			row.Functions++
			a := core.Analyze(f)
			for s := 0; s < f.Decl.NumStmts; s++ {
				if _, ok := a.Table.LocOf(s); !ok {
					continue
				}
				totalBPs++
				totalVars += len(a.Table.VarsInScope(s))
			}
		}
		row.Breakpoints = totalBPs
		if row.Functions > 0 {
			row.PerFunction = float64(totalBPs) / float64(row.Functions)
		}
		if totalBPs > 0 {
			row.VarsPerBreak = float64(totalVars) / float64(totalBPs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- table 3

// Table3Row is the performance analog of the paper's Table 3. The paper
// compared cmcc's optimized code against gcc and the MIPS cc; without
// those compilers we report the quality of the optimizer itself: simulator
// cycles for unoptimized vs. fully optimized code.
type Table3Row struct {
	Program  string
	CyclesO0 int64
	CyclesO2 int64
	Speedup  float64 // O0 / O2; > 1 means the optimizer helps
}

// Table3 measures optimized against unoptimized cycle counts.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range Names {
		row := Table3Row{Program: name}

		res0, err := CompileWorkload(name, compile.O0())
		if err != nil {
			return nil, err
		}
		m0, err := RunWorkload(res0)
		if err != nil {
			return nil, fmt.Errorf("%s at O0: %w", name, err)
		}
		row.CyclesO0 = m0.Cycles

		res2, err := CompileWorkload(name, compile.O2())
		if err != nil {
			return nil, err
		}
		m2, err := RunWorkload(res2)
		if err != nil {
			return nil, fmt.Errorf("%s at O2: %w", name, err)
		}
		row.CyclesO2 = m2.Cycles

		if out0, out2 := m0.Output(), m2.Output(); out0 != out2 {
			return nil, fmt.Errorf("%s: optimized output differs:\nO0: %s\nO2: %s", name, out0, out2)
		}
		if row.CyclesO2 > 0 {
			row.Speedup = float64(row.CyclesO0) / float64(row.CyclesO2)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- ablation

// PassAblationRow reports the cycle cost of disabling one optimization
// from the full O2 pipeline, summed over all workloads.
type PassAblationRow struct {
	Pass        string
	TotalCycles int64
	// SlowdownPct is the percentage increase over full O2.
	SlowdownPct float64
}

// PassToggle disables one optimization (or a tied pair) of the O2
// pipeline.
type PassToggle struct {
	Name    string // "-pass"
	Disable func(*opt.Options)
}

// PassToggles lists the single-pass ablations of the O2 pipeline, in
// table order. PassAblation and the oracle's per-pass coverage sweep both
// build their variants from it.
var PassToggles = []PassToggle{
	{"-constfold/prop", func(o *opt.Options) { o.ConstFold = false; o.ConstProp = false }},
	{"-copy/assignprop", func(o *opt.Options) { o.CopyProp = false; o.AssignProp = false }},
	{"-pre", func(o *opt.Options) { o.PRE = false }},
	{"-licm", func(o *opt.Options) { o.LICM = false }},
	{"-pdce", func(o *opt.Options) { o.PDCE = false }},
	{"-dce", func(o *opt.Options) { o.DCE = false }},
	{"-strength", func(o *opt.Options) { o.Strength = false }},
	{"-unroll", func(o *opt.Options) { o.Unroll = false }},
	{"-loopinvert", func(o *opt.Options) { o.LoopInvert = false }},
	{"-branchopt", func(o *opt.Options) { o.BranchOpt = false }},
}

// PassAblation measures each pass's contribution to the optimizer by
// disabling it from the O2 pipeline and re-running every workload.
func PassAblation() ([]PassAblationRow, error) {
	variants := append([]PassToggle{{"full O2", func(*opt.Options) {}}}, PassToggles...)
	// Reference outputs for correctness checking.
	want := map[string]string{}
	for _, name := range Names {
		res, err := CompileWorkload(name, compile.O0())
		if err != nil {
			return nil, err
		}
		m, err := RunWorkload(res)
		if err != nil {
			return nil, err
		}
		want[name] = m.Output()
	}

	var rows []PassAblationRow
	var baseline int64
	for vi, v := range variants {
		o := opt.O2()
		v.Disable(&o)
		cfg := compile.Config{Opt: o, RegAlloc: true, Sched: true}
		var total int64
		for _, name := range Names {
			res, err := CompileWorkload(name, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s with %s: %w", name, v.Name, err)
			}
			m, err := RunWorkload(res)
			if err != nil {
				return nil, fmt.Errorf("%s with %s: %w", name, v.Name, err)
			}
			if m.Output() != want[name] {
				return nil, fmt.Errorf("%s with %s: output differs from O0", name, v.Name)
			}
			total += m.Cycles
		}
		row := PassAblationRow{Pass: v.Name, TotalCycles: total}
		if vi == 0 {
			baseline = total
		} else if baseline > 0 {
			row.SlowdownPct = 100 * (float64(total)/float64(baseline) - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPassAblation formats the per-pass ablation.
func RenderPassAblation(rows []PassAblationRow) string {
	var b strings.Builder
	b.WriteString("Pass ablation: total workload cycles with one optimization disabled.\n")
	fmt.Fprintf(&b, "%-18s %16s %10s\n", "Variant", "total cycles", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %16d %+9.1f%%\n", r.Pass, r.TotalCycles, r.SlowdownPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- fig 5 / table 4

// Fig5Row holds the average number of local variables per breakpoint in
// each classification category — one bar group of Figure 5.
type Fig5Row struct {
	Program       string
	Uninitialized float64
	Current       float64
	Endangered    float64
	Nonresident   float64
	// Breakdown of the endangered bar (Table 4 needs the suspect share).
	Noncurrent float64
	Suspect    float64
	// Recovered counts variables whose expected value the debugger
	// reconstructs (displayed with the recovered value), broken down by
	// recovery mechanism (§2.5: alias in a temporary, recorded constant,
	// linear reconstruction of a strength-reduced induction variable).
	Recovered   float64
	RecAlias    float64
	RecConst    float64
	RecLinear   float64
	Breakpoints int

	// The endangered verdicts by cause, for CauseBreakdown.
	byHoist, byDCE, bySched float64
}

// ClassifyProgram computes the Figure 5 statistics for one workload under
// cfg: for every possible source breakpoint, every in-scope local is
// classified and the counts are averaged over breakpoints, exactly as the
// paper's instrumentation does.
func ClassifyProgram(name string, cfg compile.Config) (Fig5Row, error) {
	res, err := CompileWorkload(name, cfg)
	if err != nil {
		return Fig5Row{}, err
	}
	row := Fig5Row{Program: name}
	var uninit, cur, noncur, susp, nonres, recov, bps int
	var recAlias, recConst, recLinear int
	var hoist, dce, sched int
	for _, f := range res.Mach.Funcs {
		a := core.Analyze(f)
		for s := 0; s < f.Decl.NumStmts; s++ {
			cs, ok := a.ClassifyAllAt(s)
			if !ok {
				continue
			}
			bps++
			for _, c := range cs {
				if c.Recovered != nil {
					recov++
					switch c.Recovered.Kind {
					case core.RecoverAlias:
						recAlias++
					case core.RecoverConst:
						recConst++
					case core.RecoverLinear:
						recLinear++
					}
				}
				switch c.State {
				case core.Uninitialized:
					uninit++
				case core.Current:
					cur++
				case core.Noncurrent:
					noncur++
				case core.Suspect:
					susp++
				case core.Nonresident:
					nonres++
				}
				if c.State == core.Noncurrent || c.State == core.Suspect {
					switch c.Cause {
					case core.ByHoisting:
						hoist++
					case core.ByDeadCodeElim:
						dce++
					case core.ByScheduling:
						sched++
					}
				}
			}
		}
	}
	row.Breakpoints = bps
	if bps > 0 {
		n := float64(bps)
		row.Uninitialized = float64(uninit) / n
		row.Current = float64(cur) / n
		row.Noncurrent = float64(noncur) / n
		row.Suspect = float64(susp) / n
		row.Endangered = float64(noncur+susp) / n
		row.Nonresident = float64(nonres) / n
		row.Recovered = float64(recov) / n
		row.RecAlias = float64(recAlias) / n
		row.RecConst = float64(recConst) / n
		row.RecLinear = float64(recLinear) / n
		row.byHoist = float64(hoist) / n
		row.byDCE = float64(dce) / n
		row.bySched = float64(sched) / n
	}
	return row, nil
}

// RenderRecovery formats the recovery-mechanism breakdown (extension).
func RenderRecovery(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Recovery breakdown (§2.5, avg recovered variables per breakpoint by mechanism):\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "Program", "total", "alias", "const", "linear")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %8.2f\n",
			r.Program, r.Recovered, r.RecAlias, r.RecConst, r.RecLinear)
	}
	return b.String()
}

// Figure5a runs the paper's Figure 5(a) configuration: global
// optimizations only, no register allocation.
func Figure5a() ([]Fig5Row, error) { return figure5(compile.O2NoRegAlloc()) }

// Figure5b runs the paper's Figure 5(b) configuration: global
// optimizations plus graph-coloring register allocation.
func Figure5b() ([]Fig5Row, error) {
	cfg := compile.O2NoRegAlloc()
	cfg.RegAlloc = true
	return figure5(cfg)
}

func figure5(cfg compile.Config) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, name := range Names {
		row, err := ClassifyProgram(name, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CauseRow breaks endangered variables down by optimization cause — the
// paper reports that "code hoisting did not affect source-level debugging
// for these programs" and that elimination/sinking dominates; scheduling
// endangerment is the companion paper's contribution.
type CauseRow struct {
	Program    string
	ByHoist    float64 // endangered by code hoisting, per breakpoint
	ByDCE      float64 // endangered by dead code elimination / sinking
	BySched    float64 // endangered by instruction scheduling
	Breakpoint int
}

// CauseBreakdown classifies all workloads under full optimization
// (including scheduling) and attributes every endangered verdict to its
// cause.
func CauseBreakdown() ([]CauseRow, error) {
	var rows []CauseRow
	for _, name := range Names {
		r, err := ClassifyProgram(name, compile.O2())
		if err != nil {
			return nil, err
		}
		rows = append(rows, CauseRow{Program: name, ByHoist: r.byHoist, ByDCE: r.byDCE, BySched: r.bySched, Breakpoint: r.Breakpoints})
	}
	return rows, nil
}

// RenderCauses formats the cause breakdown.
func RenderCauses(rows []CauseRow) string {
	var b strings.Builder
	b.WriteString("Endangerment causes under full optimization (avg per breakpoint):\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %12s\n", "Program", "hoisting", "dce/sinking", "scheduling")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.3f %12.3f %12.3f\n", r.Program, r.ByHoist, r.ByDCE, r.BySched)
	}
	return b.String()
}

// Table4Row is the paper's Table 4: the percentage of endangered variables
// that are suspect (in the Figure 5(a) configuration).
type Table4Row struct {
	Program    string
	PctSuspect float64
}

// Table4 derives the suspect percentages from the Figure 5(a) data.
func Table4() ([]Table4Row, error) {
	rows5, err := Figure5a()
	if err != nil {
		return nil, err
	}
	var out []Table4Row
	for _, r := range rows5 {
		pct := 0.0
		if r.Endangered > 0 {
			pct = 100 * r.Suspect / r.Endangered
		}
		out = append(out, Table4Row{Program: r.Program, PctSuspect: pct})
	}
	return out, nil
}

// ---------------------------------------------------------------- render

// RenderTable2 formats Table 2 like the paper.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Programs used in this study.\n")
	fmt.Fprintf(&b, "%-10s %8s %12s %14s %14s\n",
		"Program", "Lines", "Breakpoints", "Bkpts/func", "Vars/bkpt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %12d %14.1f %14.1f\n",
			r.Program, r.Lines, r.Breakpoints, r.PerFunction, r.VarsPerBreak)
	}
	return b.String()
}

// RenderTable3 formats the Table 3 analog.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3 (analog): cycles of unoptimized vs optimized code on the simulator.\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %9s\n", "Program", "O0 cycles", "O2 cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14d %14d %8.2fx\n", r.Program, r.CyclesO0, r.CyclesO2, r.Speedup)
	}
	return b.String()
}

// RenderTable4 formats Table 4 like the paper.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Percentage of endangered variables that are suspect (global opts, no regalloc).\n")
	fmt.Fprintf(&b, "%-10s %10s\n", "Program", "% Suspect")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.1f%%\n", r.Program, r.PctSuspect)
	}
	return b.String()
}

// RenderFigure5 formats one Figure 5 chart as text bars.
func RenderFigure5(title string, rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %11s %12s %10s  (%s)\n",
		"Program", "uninit", "current", "endangered", "nonresident", "recovered", "avg per breakpoint")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %11.2f %12.2f %10.2f\n",
			r.Program, r.Uninitialized, r.Current, r.Endangered, r.Nonresident, r.Recovered)
	}
	b.WriteString("\nbars (one █ per 0.5 variables):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s U%s C%s E%s N%s\n", r.Program,
			bar(r.Uninitialized), bar(r.Current), bar(r.Endangered), bar(r.Nonresident))
	}
	return b.String()
}

func bar(v float64) string {
	n := int(v*2 + 0.5)
	if n > 40 {
		n = 40
	}
	return "[" + strings.Repeat("█", n) + strings.Repeat(" ", 0) + "]"
}
