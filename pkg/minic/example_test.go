package minic_test

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"repro/internal/opt"
	"repro/pkg/minic"
)

// Compile a program with the full production pipeline and execute it on
// the simulator.
func ExampleCompile() {
	art, err := minic.Compile("square.mc", `
int main() {
	int n = 12;
	print("n squared = ", n * n, "\n");
	return 0;
}
`)
	if err != nil {
		log.Fatal(err)
	}
	m, err := art.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(m.Output())
	// Output: n squared = 144
}

// Debug optimized code: the paper's Figure 3 — partial dead-code
// elimination sinks `x = a*b` into the branch that needs it, so on the
// other path the debugger must warn that the displayed value is stale.
func ExampleNewSession() {
	art, err := minic.Compile("fig3.mc", `
int g(int c, int a, int b) {
	int x = a * b;
	int r = 0;
	if (c) {
		r = x;
	}
	return r + a;
}
int main() { return g(0, 5, 4); }
`, minic.WithPasses(opt.Options{PDCE: true, DCE: true}))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := minic.NewSession(art)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.BreakAtStmt("g", 1); err != nil { // r = 0
		log.Fatal(err)
	}
	if _, err := sess.Continue(); err != nil {
		log.Fatal(err)
	}
	r, err := sess.Print("x")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Display())
	// Output: x = 0 (WARNING: noncurrent due to dead code elimination — the assignment to x (statement 0) was eliminated as dead; the value shown is stale; see line 3)
}

// Recompile an edit: the artifact's lineage keeps a per-function cache,
// so an edit to one function runs one back end and stitches the rest.
func ExampleArtifact_Recompile() {
	const prog = `
int helper(int x) { return x * 2 + 1; }
int main() { print(helper(20)); return 0; }
`
	art, err := minic.Compile("prog.mc", prog)
	if err != nil {
		log.Fatal(err)
	}
	edited, err := art.Recompile(strings.Replace(prog, "helper(20)", "helper(21)", 1))
	if err != nil {
		log.Fatal(err)
	}
	st := edited.CompileStats()
	fmt.Printf("funcs=%d compiled=%d reused=%d\n", st.Funcs, st.FuncsCompiled, st.FuncsReused)
	// Output: funcs=2 compiled=1 reused=1
}

// Session errors are typed, so callers can branch on the failure kind.
func ExampleNewSession_errors() {
	art, err := minic.Compile("t.mc", `int main() { return 1; }`)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := minic.NewSession(art)
	if err != nil {
		log.Fatal(err)
	}
	_, err = sess.Print("x")
	fmt.Println(errors.Is(err, minic.ErrNotStopped))
	_, err = sess.BreakAtLine(999)
	fmt.Println(errors.Is(err, minic.ErrNoSuchLine))
	// Output:
	// true
	// true
}
