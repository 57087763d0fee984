// Hoisting: a walkthrough of the paper's Figure 2 — how partial redundancy
// elimination endangers a variable by executing its assignment prematurely,
// and how the hoist-reach analysis classifies it as noncurrent, suspect, or
// current at different breakpoints.
package main

import (
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/pkg/minic"
)

// The Figure 2 pattern: x = y+z appears on one arm of a branch and again
// after the join. PRE inserts a hoisted copy on the other arm and deletes
// the join occurrence as redundant.
const program = `
int f(int c, int y, int z) {
	int x = 0;
	if (c) {
		x = y + z;
	} else {
		x = 1;
	}
	x = y + z;
	return x;
}
int main() { return f(1, 2, 3); }
`

func main() {
	art, err := minic.Compile("fig2.mc", program, minic.WithPasses(opt.Options{PRE: true}))
	if err != nil {
		log.Fatal(err)
	}
	res := art.Result()
	f := art.Func("f")

	fmt.Println("=== optimized machine code (note !hoisted and the markavail marker) ===")
	fmt.Println(f.String())

	a := art.Analysis(f)
	var x *ast.Object
	for _, v := range f.Decl.Locals {
		if v.Name == "x" {
			x = v
		}
	}

	fmt.Println("=== classification of x at every breakpoint ===")
	stmts := ast.StmtsByID(f.Decl)
	for s := 0; s < f.Decl.NumStmts; s++ {
		c, ok := a.ClassifyAt(s, x)
		if !ok {
			continue
		}
		line := 0
		if stmts[s] != nil {
			line = res.File.Position(stmts[s].Span().Start).Line
		}
		fmt.Printf("stmt %d (line %2d): x is %-10s", s, line, c.State)
		if c.Cause != core.NoCause {
			fmt.Printf(" (due to %s)", c.Cause)
		}
		fmt.Println()
		if c.Why != "" {
			fmt.Printf("    %s\n", c.Why)
		}
	}

	fmt.Println()
	fmt.Println("Compare with the paper's Figure 2:")
	fmt.Println("  - inside the arm that received the hoisted assignment, x is noncurrent;")
	fmt.Println("  - at the join statement (before the deleted redundant copy), x is suspect;")
	fmt.Println("  - after the redundant copy's marker, x is current again.")

	// Show the marker that bounds the endangerment region.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mach.MARKAVAIL {
				fmt.Printf("\nmarker found: %q — it kills the hoist reach of x\n", in.StringIn(f))
			}
		}
	}
}
