// mcbench regenerates every table and figure of the paper's evaluation
// section over the eight SPEC92-analog workloads.
//
// Usage:
//
//	mcbench                 regenerate everything
//	mcbench -table 1|2|3|4  one table
//	mcbench -figure 5a|5b   one figure
//	mcbench -ablation       marker-ablation comparison (extension)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/pkg/minic"
)

func main() {
	table := flag.String("table", "", "regenerate one table (1, 2, 3, 4)")
	figure := flag.String("figure", "", "regenerate one figure (5a, 5b)")
	ablation := flag.Bool("ablation", false, "marker ablation study")
	recovery := flag.Bool("recovery", false, "recovery mechanism breakdown (extension)")
	causes := flag.Bool("causes", false, "endangerment cause breakdown (extension)")
	passes := flag.Bool("passes", false, "per-pass cycle ablation (slow; extension)")
	flag.Parse()

	all := *table == "" && *figure == "" && !*ablation && !*recovery && !*causes && !*passes

	if all || *table == "1" {
		printTable1()
	}
	if all || *table == "2" {
		rows, err := bench.Table2()
		check(err)
		fmt.Println(bench.RenderTable2(rows))
	}
	if all || *table == "3" {
		rows, err := bench.Table3()
		check(err)
		fmt.Println(bench.RenderTable3(rows))
	}
	if all || *table == "4" {
		rows, err := bench.Table4()
		check(err)
		fmt.Println(bench.RenderTable4(rows))
	}
	if all || *figure == "5a" {
		rows, err := bench.Figure5a()
		check(err)
		fmt.Println(bench.RenderFigure5("Figure 5(a): global optimizations only (no register allocation)", rows))
	}
	if all || *figure == "5b" {
		rows, err := bench.Figure5b()
		check(err)
		fmt.Println(bench.RenderFigure5("Figure 5(b): global optimizations and register allocation", rows))
	}
	if all || *recovery {
		rows, err := bench.Figure5a()
		check(err)
		fmt.Println(bench.RenderRecovery(rows))
	}
	if all || *causes {
		rows, err := bench.CauseBreakdown()
		check(err)
		fmt.Println(bench.RenderCauses(rows))
	}
	if all || *ablation {
		runAblation()
	}
	if *passes { // not part of the default run: ~1 minute
		rows, err := bench.PassAblation()
		check(err)
		fmt.Println(bench.RenderPassAblation(rows))
	}
}

func printTable1() {
	fmt.Println("Table 1: Optimizations performed by mcc (cf. cmcc).")
	for _, line := range []string{
		"loop unrolling (no loop peeling)     (internal/opt: Unroll)",
		"linear function test replacement     (internal/opt: StrengthReduce/lftr)",
		"induction variable simplification    (internal/opt: StrengthReduce)",
		"constant propagation and folding     (internal/opt: ConstFold, ConstProp)",
		"induction variable elimination       (internal/opt: StrengthReduce + DCE)",
		"assignment propagation               (internal/opt: AssignProp)",
		"partial dead code elimination        (internal/opt: PDCE)",
		"dead assignment elimination          (internal/opt: DCE, FaintDCE)",
		"partial redundancy elimination       (internal/opt: PRE)",
		"loop-invariant code motion           (internal/opt: LICM)",
		"strength reduction                   (internal/opt: ConstFold mul->shl, StrengthReduce)",
		"branch optimizations                 (internal/opt: BranchOpt, LoopInvert)",
		"global register allocation           (internal/regalloc: graph coloring)",
		"register coalescing                  (internal/regalloc: Briggs-conservative)",
		"instruction scheduling               (internal/sched: list scheduling)",
	} {
		fmt.Println("  " + line)
	}
	fmt.Println()
}

// runAblation compares the classifier with and without the §3 marker
// bookkeeping: without markers the debugger silently loses endangerment —
// exactly the "debugger inaccurate" behavior of the vendor tools quoted in
// the paper's introduction.
func runAblation() {
	fmt.Println("Ablation: endangered variables visible to the debugger, with vs without markers.")
	fmt.Printf("%-10s %18s %21s\n", "Program", "with markers", "without markers")
	cfg := minic.ResolveConfig(minic.WithRegAlloc(false), minic.WithSched(false))
	ablcfg := minic.ResolveConfig(minic.WithRegAlloc(false), minic.WithSched(false), minic.WithMarkers(false))
	for _, name := range bench.Names {
		with, err := bench.ClassifyProgram(name, cfg)
		check(err)
		without, err := bench.ClassifyProgram(name, ablcfg)
		check(err)
		fmt.Printf("%-10s %15.2f/bp %18.2f/bp\n", name, with.Endangered, without.Endangered)
	}
	fmt.Println("\n(without markers the variables are still wrong at runtime — the debugger")
	fmt.Println(" just can no longer warn the user; every silent entry is a potential")
	fmt.Println(" misleading debugging session)")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
